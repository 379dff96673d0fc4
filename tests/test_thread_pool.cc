/**
 * @file
 * Fork-join unit tests: parallelForWorker index coverage, worker
 * slots, exception propagation, and the DMS_JOBS environment knob
 * behind defaultJobs().
 */

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/thread_pool.h"

namespace dms {
namespace {

/** defaultJobs() when DMS_JOBS is unset. */
int
hardwareJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

TEST(ThreadPool, JobsDefaultsArePositive)
{
    ::unsetenv("DMS_JOBS");
    EXPECT_GE(defaultJobs(), 1);
    EXPECT_EQ(defaultJobs(), hardwareJobs());
}

TEST(ThreadPool, ParallelForWorkerCoversEachIndexExactlyOnce)
{
    for (int jobs : {1, 2, 8}) {
        const size_t n = 1000;
        std::vector<std::atomic<int>> hits(n);
        parallelForWorker(n, jobs, [&](size_t i, int slot) {
            ASSERT_GE(slot, 0);
            ASSERT_LT(slot, jobs);
            ++hits[i];
        });
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1)
                << "index " << i << " jobs=" << jobs;
    }
}

TEST(ThreadPool, ParallelForWorkerZeroAndFewerItemsThanWorkers)
{
    parallelForWorker(0, 8, [](size_t, int) { FAIL(); });
    std::atomic<int> count{0};
    parallelForWorker(3, 8, [&](size_t, int slot) {
        EXPECT_LT(slot, 3); // min(jobs, n) threads, not jobs
        ++count;
    });
    EXPECT_EQ(count.load(), 3);

    // One job runs inline on the caller, as slot 0.
    const std::thread::id caller = std::this_thread::get_id();
    parallelForWorker(5, 1, [&](size_t, int slot) {
        EXPECT_EQ(slot, 0);
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(ThreadPool, DeterministicOutputSlotsAcrossJobCounts)
{
    // Each index writes its own slot: results must match the
    // serial order no matter how many workers interleave.
    const size_t n = 256;
    std::vector<long> serial(n);
    parallelForWorker(n, 1, [&](size_t i, int slot) {
        EXPECT_EQ(slot, 0);
        serial[i] = static_cast<long>(i * i + 7);
    });
    for (int jobs : {2, 4, 8}) {
        std::vector<long> par(n);
        parallelForWorker(n, jobs, [&](size_t i, int slot) {
            EXPECT_LT(slot, jobs);
            par[i] = static_cast<long>(i * i + 7);
        });
        EXPECT_EQ(par, serial) << "jobs=" << jobs;
    }
}

TEST(ThreadPool, ExceptionsPropagateToParallelForWorker)
{
    for (int jobs : {1, 4}) {
        std::atomic<int> started{0};
        auto boom = [&](size_t i, int) {
            ++started;
            if (i == 13)
                throw std::runtime_error("boom");
        };
        EXPECT_THROW(parallelForWorker(32, jobs, boom),
                     std::runtime_error)
            << "jobs=" << jobs;
        // Inline, nothing after the throwing index starts.
        if (jobs == 1) {
            EXPECT_EQ(started.load(), 14);
        }
        // A failed run leaves nothing behind for the next one.
        std::atomic<int> count{0};
        parallelForWorker(8, jobs, [&](size_t, int slot) {
            EXPECT_LT(slot, jobs);
            ++count;
        });
        EXPECT_EQ(count.load(), 8);
    }
}

TEST(ThreadPool, JobsFromEnvChecksItsInput)
{
    const int fallback = hardwareJobs();
    ::setenv("DMS_JOBS", "6", 1);
    EXPECT_EQ(defaultJobs(), 6);
    ::setenv("DMS_JOBS", "6x", 1); // trailing garbage
    EXPECT_EQ(defaultJobs(), fallback);
    ::setenv("DMS_JOBS", "garbage", 1);
    EXPECT_EQ(defaultJobs(), fallback);
    ::setenv("DMS_JOBS", "0", 1);
    EXPECT_EQ(defaultJobs(), fallback);
    ::setenv("DMS_JOBS", "-3", 1);
    EXPECT_EQ(defaultJobs(), fallback);
    ::setenv("DMS_JOBS", "99999999999999999999", 1); // overflow
    EXPECT_EQ(defaultJobs(), fallback);
    ::unsetenv("DMS_JOBS");
    EXPECT_EQ(defaultJobs(), fallback);
    ::setenv("DMS_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3);
    ::unsetenv("DMS_JOBS");
}

} // namespace
} // namespace dms
