/**
 * @file
 * Thread pool unit tests: parallelForWorker index coverage, worker
 * slots, exception propagation and reuse after a failed run, and
 * the DMS_JOBS environment knob.
 */

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "support/thread_pool.h"

namespace dms {
namespace {

TEST(ThreadPool, JobsDefaultsArePositive)
{
    ::unsetenv("DMS_JOBS");
    ThreadPool p;
    EXPECT_GE(p.jobs(), 1);
    ThreadPool p1(1);
    EXPECT_EQ(p1.jobs(), 1);
    ThreadPool p4(4);
    EXPECT_EQ(p4.jobs(), 4);
}

TEST(ThreadPool, ParallelForWorkerCoversEachIndexExactlyOnce)
{
    for (int jobs : {1, 2, 8}) {
        ThreadPool pool(jobs);
        const size_t n = 1000;
        std::vector<std::atomic<int>> hits(n);
        pool.parallelForWorker(n, [&](size_t i, int slot) {
            ASSERT_GE(slot, 0);
            ASSERT_LT(slot, pool.jobs());
            ++hits[i];
        });
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1)
                << "index " << i << " jobs=" << jobs;
    }
}

TEST(ThreadPool, ParallelForWorkerZeroAndFewerItemsThanWorkers)
{
    ThreadPool pool(8);
    pool.parallelForWorker(0, [](size_t, int) { FAIL(); });
    std::atomic<int> count{0};
    pool.parallelForWorker(3, [&](size_t, int slot) {
        EXPECT_LT(slot, pool.jobs());
        ++count;
    });
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, DeterministicOutputSlotsAcrossJobCounts)
{
    // Each index writes its own slot: results must match the
    // serial order no matter how many workers interleave.
    const size_t n = 256;
    std::vector<long> serial(n);
    ThreadPool one(1);
    one.parallelForWorker(n, [&](size_t i, int slot) {
        EXPECT_EQ(slot, 0);
        serial[i] = static_cast<long>(i * i + 7);
    });
    for (int jobs : {2, 4, 8}) {
        std::vector<long> par(n);
        ThreadPool pool(jobs);
        pool.parallelForWorker(n, [&](size_t i, int slot) {
            EXPECT_LT(slot, jobs);
            par[i] = static_cast<long>(i * i + 7);
        });
        EXPECT_EQ(par, serial) << "jobs=" << jobs;
    }
}

TEST(ThreadPool, ExceptionsPropagateToParallelForWorker)
{
    for (int jobs : {1, 4}) {
        ThreadPool pool(jobs);
        auto boom = [](size_t i, int) {
            if (i == 13)
                throw std::runtime_error("boom");
        };
        EXPECT_THROW(pool.parallelForWorker(32, boom),
                     std::runtime_error)
            << "jobs=" << jobs;
        // The pool stays usable after a failed run.
        std::atomic<int> count{0};
        pool.parallelForWorker(8, [&](size_t, int slot) {
            EXPECT_LT(slot, jobs);
            ++count;
        });
        EXPECT_EQ(count.load(), 8);
    }
}

TEST(ThreadPool, JobsFromEnvChecksItsInput)
{
    ::setenv("DMS_JOBS", "6", 1);
    EXPECT_EQ(ThreadPool::jobsFromEnv(2), 6);
    ::setenv("DMS_JOBS", "6x", 1); // trailing garbage
    EXPECT_EQ(ThreadPool::jobsFromEnv(2), 2);
    ::setenv("DMS_JOBS", "garbage", 1);
    EXPECT_EQ(ThreadPool::jobsFromEnv(2), 2);
    ::setenv("DMS_JOBS", "0", 1);
    EXPECT_EQ(ThreadPool::jobsFromEnv(2), 2);
    ::setenv("DMS_JOBS", "-3", 1);
    EXPECT_EQ(ThreadPool::jobsFromEnv(2), 2);
    ::setenv("DMS_JOBS", "99999999999999999999", 1); // overflow
    EXPECT_EQ(ThreadPool::jobsFromEnv(2), 2);
    ::unsetenv("DMS_JOBS");
    EXPECT_EQ(ThreadPool::jobsFromEnv(2), 2);
    ::setenv("DMS_JOBS", "3", 1);
    ThreadPool pool;
    EXPECT_EQ(pool.jobs(), 3);
    ::unsetenv("DMS_JOBS");
}

} // namespace
} // namespace dms
