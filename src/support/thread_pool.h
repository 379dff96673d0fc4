#ifndef DMS_SUPPORT_THREAD_POOL_H
#define DMS_SUPPORT_THREAD_POOL_H

/**
 * @file
 * A small fixed-size thread pool with a chunked parallel-for, used
 * by the evaluation runner to schedule independent matrix cells
 * concurrently. Tasks are self-scheduled: workers pull indices
 * from a shared atomic counter, so heavyweight cells (a full
 * modulo-scheduling run each) balance automatically without a
 * static partition.
 */

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dms {

class ThreadPool
{
  public:
    /**
     * @param jobs Worker count; 0 picks defaultJobs(). A pool with
     *             jobs <= 1 spawns no threads and runs everything
     *             inline, so serial semantics are exact.
     */
    explicit ThreadPool(int jobs = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker count this pool executes with (>= 1). */
    int jobs() const { return jobs_; }

    /**
     * Run body(i, slot) for i in 0..n-1, each index exactly once,
     * distributed over the pool's workers with dynamic (chunk-of-1)
     * self-scheduling. The body also receives a dense worker slot
     * in [0, jobs()): every index executed by the same task sees
     * the same slot, so callers can hand each worker its own
     * reusable state (arena, compilation context) without locking.
     * Slot assignment is an implementation detail — only the
     * "exclusive while running" property is guaranteed. Blocks
     * until all indices are done; rethrows the first exception a
     * body raised. Safe to call repeatedly; must not be called from
     * inside a pool task.
     */
    void parallelForWorker(
        size_t n, const std::function<void(size_t, int)> &body);

    /**
     * The pool size used when none is given: DMS_JOBS if set to a
     * positive integer (garbage or overflow is rejected with a
     * warning), else std::thread::hardware_concurrency(), else 1.
     */
    static int defaultJobs();

    /**
     * Checked DMS_JOBS lookup: @p fallback when unset; rejects
     * non-numeric values, trailing garbage and overflow (with a
     * warning) instead of silently misparsing them.
     */
    static int jobsFromEnv(int fallback);

  private:
    /** Enqueue a task for the workers (jobs() > 1 only). */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted task has finished. Rethrows the
     * first exception a task raised, if any.
     */
    void wait();

    void workerLoop();

    int jobs_;
    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mu_;
    std::condition_variable cvTask_; ///< signals queued work
    std::condition_variable cvIdle_; ///< signals drain for wait()
    size_t active_ = 0;              ///< tasks currently executing
    bool stop_ = false;
    std::exception_ptr firstError_;
};

} // namespace dms

#endif // DMS_SUPPORT_THREAD_POOL_H
