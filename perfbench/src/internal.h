#ifndef DMS_PERFBENCH_INTERNAL_H
#define DMS_PERFBENCH_INTERNAL_H

/**
 * @file
 * Pieces shared by the untraced and the traced run: clocks and
 * process counters, the system under test (a service, optionally
 * behind a loopback NetServer), the closed-loop batch driver, and the
 * correctness checker.
 */

#include <sched.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/metrics.h"
#include "serve/net.h"

namespace perfbench {

/** Monotonic seconds. */
double nowSeconds();

/** User + system CPU seconds of the whole process so far. */
double cpuSeconds();

/** Peak resident set size of the process so far, in MiB. */
double peakRssMb();

/** Nearest-rank percentile of @p v (p in [0, 100]); 0 if empty. */
double percentile(std::vector<double> v, double p);

inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50);
}

/** Counter @p name of a metrics snapshot, 0 when absent. */
std::uint64_t counterOf(const dms::obs::MetricsSnapshot &snap,
                        const char *name);

/** Gauge @p name of a metrics snapshot, 0 when absent. */
double gaugeOf(const dms::obs::MetricsSnapshot &snap, const char *name);

/**
 * Confines the calling thread, and every thread it creates, to the
 * last CPU of the affinity mask until restore() or destruction.
 */
class OneCpu
{
  public:
    OneCpu();
    ~OneCpu() { restore(); }

    OneCpu(const OneCpu &) = delete;
    OneCpu &operator=(const OneCpu &) = delete;

    void restore();

  private:
    cpu_set_t saved_{};
    bool pinned_ = false;
};

/** How a Rig is built. */
struct RigShape
{
    int workers = 1;
    int clients = 1;
    int cacheCapacity = 0;
    bool tcp = false; ///< serve through a loopback NetServer
};

/**
 * The system under test for the service workloads: a CompileService
 * and, for the TCP workload, a loopback NetServer with one NetClient
 * per client thread. Construction plus prime() is the set-up that
 * setup_s times.
 */
class Rig
{
  public:
    Rig(Workload w, const Streams &streams, const RigShape &shape);
    ~Rig();

    Rig(const Rig &) = delete;
    Rig &operator=(const Rig &) = delete;

    /** Bring the rig to the state the timed phase starts from. */
    void prime();

    /** One closed-loop request from client @p client. */
    dms::CompileService::ResultPtr issue(int client,
                                         const dms::CompileRequest &req);

    dms::CompileService &service() { return *service_; }

    /** The front-end's metrics (service + net.*) when serving TCP. */
    dms::obs::MetricsSnapshot metrics() const;

  private:
    Workload workload_;
    const Streams &streams_;
    std::unique_ptr<dms::CompileService> service_;
    std::unique_ptr<dms::NetServer> server_;
    std::vector<std::unique_ptr<dms::NetClient>> clients_;
};

/** A sampled request with the result it got. */
struct Sample
{
    Request request;
    dms::CompileService::ResultPtr result;
};

/** Share of each batch's latencies, the slowest, kept in LoopStats. */
inline constexpr double kTailShare = 0.02;

/** What a closed-loop phase measured. */
struct LoopStats
{
    std::vector<double> batchRps;
    std::vector<double> batchP50Ms;
    std::vector<double> batchP99Ms;
    std::vector<double> batchCpuMs; ///< process CPU per request
    /** Each batch's slowest kTailShare of latencies, for pooled p99s. */
    std::vector<std::vector<double>> batchTailMs;
    long requests = 0; ///< measured requests attempted
    long served = 0;   ///< ended Ok or Unschedulable
    long ok = 0;
    double sumIi = 0;
    double sumMii = 0;
    double seconds = 0;    ///< measured wall time
    std::vector<Sample> samples;
};

/**
 * Drive @p rig closed-loop from shape.clients threads. Requests are
 * generated a batch at a time outside the timed region; @p warmup
 * batches run first unmeasured, then batches run until @p seconds
 * of measured time. @p next is the stream index to continue from.
 */
LoopStats runClosedLoop(Rig &rig, const Streams &streams, Workload w,
                        const Shape &shape, long &next, double seconds,
                        int warmup, int sampleCap);

/** A service workload's untraced closed-loop phase. */
struct ServicePhase
{
    std::vector<double> setups; ///< seconds per set-up
    LoopStats stats;
    dms::obs::MetricsSnapshot before; ///< around the timed batches
    dms::obs::MetricsSnapshot after;
    double rssMb = 0; ///< peak RSS at the end of the timed batches

    /** Empty when the counters show the workload's designed split. */
    std::string splitProblem(Workload w) const;
};

/**
 * Run service workload @p w with its shape and placement: @p setups
 * timed set-ups on fresh rigs, warm-up on the last, then @p seconds
 * of timed batches keeping up to @p sampleCap samples.
 */
ServicePhase runServicePhase(Workload w, const Shape &shape,
                             const Streams &streams, double seconds,
                             int setups, int sampleCap);

/** Generate requests [first, first + n) of @p w's stream. */
std::vector<Request> generate(const Streams &streams, Workload w,
                              long first, int n);

/**
 * Checks served results against a direct Pipeline::run of the same
 * request, simulates every direct schedule against the reference
 * interpreter, and accumulates DMS-vs-IMS cycles per distinct loop.
 */
class Checker
{
  public:
    explicit Checker(const Streams &streams);

    /** Empty when @p served matches; else what went wrong. */
    std::string check(const Request &request,
                      const dms::CompileResult &served);

    /** Direct run of @p loopText (counts toward rel_cycles). */
    std::string checkLoop(const std::string &loopText);

    /** Sum DMS cycles / sum IMS cycles over the checked loops. */
    double relCycles() const;

    /** Distinct loops checked. */
    size_t loops() const { return memo_.size(); }

  private:
    struct Direct
    {
        dms::LoopRun run;
        std::string problem; ///< simulation mismatch, if any
    };

    const Direct &direct(const dms::Loop &loop,
                         const dms::MachineModel &machine,
                         const dms::PipelineOptions &options,
                         const std::string &canonical);

    const Streams &streams_;
    std::map<std::string, Direct> memo_;
    std::vector<std::string> hotCanonical_;
    double dmsCycles_ = 0;
    double imsCycles_ = 0;
};

/** The canonical form of the loop in @p loopText ("" on error). */
std::string canonicalLoop(const std::string &loopText);

/**
 * Simulate @p run's schedule in @p ctx against the reference
 * interpreter; empty when the pipelined loop computes what the
 * sequential loop computes.
 */
std::string simulate(const dms::CompilationContext &ctx,
                     const dms::MachineModel &machine, long iterations);

} // namespace perfbench

#endif // DMS_PERFBENCH_INTERNAL_H
