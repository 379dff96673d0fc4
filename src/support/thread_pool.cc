#include "support/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <memory>

#include "support/diag.h"
#include "support/strings.h"

namespace dms {

ThreadPool::ThreadPool(int jobs)
    : jobs_(jobs > 0 ? jobs : defaultJobs())
{
    if (jobs_ <= 1)
        return;
    workers_.reserve(static_cast<size_t>(jobs_));
    for (int i = 0; i < jobs_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cvTask_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::workerLoop()
{
    while (true) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cvTask_.wait(lock,
                         [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
            ++active_;
        }
        try {
            task();
        } catch (...) {
            std::lock_guard<std::mutex> lock(mu_);
            if (!firstError_)
                firstError_ = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            --active_;
            if (queue_.empty() && active_ == 0)
                cvIdle_.notify_all();
        }
    }
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        queue_.push_back(std::move(task));
    }
    cvTask_.notify_one();
}

void
ThreadPool::wait()
{
    std::exception_ptr err;
    {
        std::unique_lock<std::mutex> lock(mu_);
        cvIdle_.wait(lock, [this] {
            return queue_.empty() && active_ == 0;
        });
        err = firstError_;
        firstError_ = nullptr;
    }
    if (err)
        std::rethrow_exception(err);
}

void
ThreadPool::parallelForWorker(
    size_t n, const std::function<void(size_t, int)> &body)
{
    if (n == 0)
        return;
    if (jobs_ <= 1) {
        for (size_t i = 0; i < n; ++i)
            body(i, 0);
        return;
    }
    auto next = std::make_shared<std::atomic<size_t>>(0);
    auto abort = std::make_shared<std::atomic<bool>>(false);
    size_t spawn = std::min(static_cast<size_t>(jobs_), n);
    for (size_t w = 0; w < spawn; ++w) {
        const int slot = static_cast<int>(w);
        submit([next, abort, n, slot, &body] {
            for (size_t i = next->fetch_add(1); i < n;
                 i = next->fetch_add(1)) {
                // A thrown body aborts the whole loop instead of
                // grinding through the remaining indices first.
                if (abort->load(std::memory_order_relaxed))
                    return;
                try {
                    body(i, slot);
                } catch (...) {
                    abort->store(true, std::memory_order_relaxed);
                    throw;
                }
            }
        });
    }
    wait();
}

int
ThreadPool::defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return jobsFromEnv(hw > 0 ? static_cast<int>(hw) : 1);
}

int
ThreadPool::jobsFromEnv(int fallback)
{
    const char *s = std::getenv("DMS_JOBS");
    if (s == nullptr)
        return fallback;
    int v = 0;
    if (!parseInt(s, v) || v <= 0) {
        warn("DMS_JOBS='%s' is not a positive integer; using %d",
             s, fallback);
        return fallback;
    }
    return v;
}

} // namespace dms
