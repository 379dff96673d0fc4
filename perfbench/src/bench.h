#ifndef DMS_PERFBENCH_BENCH_H
#define DMS_PERFBENCH_BENCH_H

/**
 * @file
 * The repository benchmark: three closed-loop workloads against the
 * public API (CompileService::compile in-process, runMatrix for the
 * paper matrix), an untraced run that reports the end-to-end metrics,
 * and a traced run that replays a seeded sample of each workload's
 * requests as timed calls into every layer's public functions. See perfbench/README.md for the
 * metric and workload definitions.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "eval/runner.h"
#include "serve/service.h"
#include "support/rng.h"

namespace perfbench {

enum class Workload : std::uint8_t {
    ColdUnique,    ///< unique synthetic loops, in-process
    RespelledHits, ///< fresh spellings of primed kernels
    PaperMatrix,   ///< runMatrix over the standard suite
};

inline constexpr Workload kWorkloads[] = {
    Workload::ColdUnique, Workload::RespelledHits, Workload::PaperMatrix};

const char *workloadName(Workload w);
bool workloadFromName(const std::string &name, Workload &out);

/** CPUs this process may run on (the affinity mask). */
int usableCpus();

/** Which CPUs a workload's threads run on. */
enum class Placement : std::uint8_t {
    OneCpu,  ///< every thread on the last CPU of the mask
    AllCpus, ///< left to the kernel
};

/**
 * Thread budget and sizes of one workload. Client threads plus
 * service workers (or matrix jobs) never exceed usableCpus().
 */
struct Shape
{
    int clients = 1;
    int workers = 1;
    int jobs = 1;
    int cacheCapacity = 0;
    int batch = 1; ///< requests per timed batch
    Placement placement = Placement::AllCpus;
};

Shape shapeOf(Workload w, int cpus);

/** One request of a service workload plus what the check needs. */
struct Request
{
    dms::CompileRequest req;
    long index = 0;
    int hot = -1; ///< hot-set kernel index, -1 for a cold loop
};

/** Seeded, per-index deterministic request streams. */
class Streams
{
  public:
    explicit Streams(std::uint64_t seed);

    /** Request number @p index of a service workload's stream. */
    Request at(Workload w, long index) const;

    /** A cold request outside every measured stream, the same for
     *  every seed (warm-up). */
    Request warmup(long index) const;

    /** The hot set: every named kernel in canonical text. */
    const std::vector<std::string> &hotTexts() const { return hot_; }

    /** The serving machine, clusteredRing(4), in canonical text. */
    const std::string &machineText() const { return machine_; }

    /** The standard serving configuration of a request. */
    dms::CompileRequest request(std::string loopText) const;

    /**
     * The paper_matrix stream: the order in which pass @p pass
     * sweeps a suite of @p n loops (a seeded permutation).
     */
    std::vector<size_t> passOrder(size_t n, long pass) const;

    /** Seeded 64-bit hash of (@p salt, @p index). */
    std::uint64_t mix(std::uint64_t salt, long index) const;

  private:
    std::uint64_t seed_;
    std::vector<std::string> hot_;
    std::string machine_;
};

/**
 * A fresh spelling of canonical loop text: comment and blank lines,
 * extra spaces, and op ids shifted by a random offset — every form
 * loopFromText accepts and loopToText canonicalises away.
 */
std::string respell(const std::string &canonical, dms::Rng &rng,
                    long index);

/** The paper matrix setup of one sweep (fig 4-6 columns). */
dms::RunnerOptions matrixOptions(int jobs);

/** Jobs of the parallel runMatrix the traced run compares with one. */
int matrixJobs(int cpus);

/** One named metric value. */
struct Metric
{
    std::string name;
    double value = 0.0;
};

/** Definition of one reported metric. */
struct MetricDef
{
    const char *name;
    const char *unit;
    const char *better; ///< "higher" or "lower"
};

/** Every end-to-end metric (untraced run), in report order. */
const std::vector<MetricDef> &endToEndMetrics();

/** Every per-layer metric (traced run), in report order. */
const std::vector<MetricDef> &perLayerMetrics();

/** What one benchmark run hands back to main. */
struct Report
{
    bool correct = true;
    long attempted = 0;
    long failed = 0;
    std::vector<Metric> metrics;

    /** Human-readable lines printed before the result. */
    std::vector<std::string> notes;

    /** Run-config fields for the config row ("key":value JSON). */
    std::vector<std::string> config;

    void set(const std::string &name, double value);
    void note(std::string line);
    void fail(std::string why);
};

struct RunArgs
{
    Workload workload = Workload::ColdUnique;
    std::uint64_t seed = 1;
    double seconds = 10;
    std::string traceOut; ///< trace_event JSON path (traced run)
};

/** The untraced run: every end-to-end metric. */
Report runEndToEnd(const RunArgs &args);

/** The traced run: every per-layer metric. */
Report runTraced(const RunArgs &args);

/** Benchmark self-tests; returns the number of failures. */
int runSelfTests();

} // namespace perfbench

#endif // DMS_PERFBENCH_BENCH_H
