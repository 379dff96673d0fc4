#include "support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

#include "support/strings.h"

namespace dms {

int
defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return envInt("DMS_JOBS", hw > 0 ? static_cast<int>(hw) : 1);
}

void
parallelForWorker(size_t n, int jobs,
                  const std::function<void(size_t, int)> &body)
{
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr firstError; // written once, read after join
    const auto work = [&](int slot) {
        try {
            for (size_t i = next.fetch_add(1);
                 i < n && !failed.load(std::memory_order_relaxed);
                 i = next.fetch_add(1))
                body(i, slot);
        } catch (...) {
            if (!failed.exchange(true))
                firstError = std::current_exception();
        }
    };

    const size_t threads =
        std::min(n, static_cast<size_t>(std::max(jobs, 1)));
    std::vector<std::thread> helpers;
    helpers.reserve(threads > 0 ? threads - 1 : 0);
    for (size_t slot = 1; slot < threads; ++slot) {
        try {
            helpers.emplace_back(work, static_cast<int>(slot));
        } catch (const std::system_error &) {
            break; // out of threads: the ones running finish the loop
        }
    }
    work(0);
    for (std::thread &t : helpers)
        t.join();
    if (firstError)
        std::rethrow_exception(firstError);
}

} // namespace dms
