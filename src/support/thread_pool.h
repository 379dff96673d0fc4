#ifndef DMS_SUPPORT_THREAD_POOL_H
#define DMS_SUPPORT_THREAD_POOL_H

/**
 * @file
 * The repo's one fork-join primitive. parallelForWorker spawns its
 * threads for one loop and joins them before it returns; the
 * threads self-schedule indices from a shared atomic counter, so
 * heavyweight iterations (a full modulo-scheduling run per matrix
 * cell, a whole client of the load generator) balance without a
 * static partition.
 */

#include <cstddef>
#include <functional>

namespace dms {

/**
 * The thread count used when none is given: DMS_JOBS if set to a
 * positive integer (garbage or overflow is rejected with a
 * warning), else std::thread::hardware_concurrency(), else 1.
 */
int defaultJobs();

/**
 * Run body(i, slot) for i in 0..n-1, each index exactly once, on
 * min(jobs, n) threads, the caller being one of them; jobs <= 1
 * runs every index inline. Each thread has one dense slot in
 * [0, min(jobs, n)) for all the indices it runs, so callers can
 * hand each thread its own reusable state (a compilation context,
 * a client) without locking. Returns once every thread has joined;
 * rethrows the first exception a body raised, after which no
 * thread starts a new index.
 */
void parallelForWorker(size_t n, int jobs,
                       const std::function<void(size_t, int)> &body);

} // namespace dms

#endif // DMS_SUPPORT_THREAD_POOL_H
