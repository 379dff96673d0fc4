/**
 * @file
 * Parallel-runner validation bench: runs the figure matrix serially
 * (jobs=1) and in parallel (jobs=8 by default, DMS_JOBS overrides),
 * checks the two result sets are bit-identical, and emits
 * BENCH_matrix_speedup.json with both wall times and the speedup.
 * This is the measurement behind the "runMatrix >= 3x faster at
 * jobs=8" acceptance line (on hardware with >= 8 cores).
 */

#include <chrono>
#include <cstdio>

#include "eval/report.h"
#include "eval/runner.h"
#include "support/diag.h"
#include "support/strings.h"

namespace {

using namespace dms;

double
timedMatrix(const std::vector<Loop> &suite, int jobs,
            std::vector<ConfigRun> &out)
{
    RunnerOptions opts;
    opts.jobs = jobs;
    opts.progress = false;
    auto t0 = std::chrono::steady_clock::now();
    out = runMatrix(suite, opts);
    auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace

int
main()
{
    using namespace dms;
    int count = suiteCountFromEnv(1258);
    int jobs = envInt("DMS_JOBS", 8);
    std::printf("matrix_speedup: %d loops, jobs=1 vs jobs=%d\n",
                count, jobs);

    std::vector<Loop> suite = standardSuite(kSuiteSeed, count);

    std::vector<ConfigRun> serial;
    std::vector<ConfigRun> parallel;
    double t_serial = timedMatrix(suite, 1, serial);
    std::printf("jobs=1: %.3f s\n", t_serial);
    double t_parallel = timedMatrix(suite, jobs, parallel);
    std::printf("jobs=%d: %.3f s\n", jobs, t_parallel);

    bool identical = serial == parallel;
    double speedup = t_parallel > 0 ? t_serial / t_parallel : 0.0;
    std::printf("speedup: %.2fx, results %s\n", speedup,
                identical ? "bit-identical" : "DIVERGED");
    if (!identical)
        fatal("parallel matrix diverged from the serial matrix");

    MatrixReport meta;
    meta.bench = "matrix_speedup";
    meta.suiteSize = suite.size();
    meta.jobs = jobs;
    meta.wallSeconds = t_parallel;
    meta.extra =
        strfmt("\"serial_seconds\":%.6f,\"speedup\":%.4f,"
               "\"identical\":true", t_serial, speedup);
    writeMatrixReport("BENCH_matrix_speedup.json", meta, suite,
                      parallel);
    return 0;
}
