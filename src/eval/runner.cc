#include "eval/runner.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "machine/desc.h"
#include "support/diag.h"
#include "support/strings.h"
#include "support/thread_pool.h"

namespace dms {

namespace {

/** Pipeline options for one sweep column. */
PipelineOptions
columnOptions(const std::string &scheduler,
              const RunnerOptions &opts)
{
    PipelineOptions po;
    po.scheduler = scheduler;
    po.config.base = opts.ims;
    po.config.dms = opts.dms;
    po.verify = opts.verify;
    po.regalloc = opts.regalloc;
    po.perf = true;
    po.analyze = opts.analyze;
    return po;
}

/** Instantiate a column's machine for one cluster count. */
MachineModel
columnMachine(const std::string &tmpl, int clusters)
{
    MachineModel m = MachineModel::unclustered(1);
    std::string error;
    if (!machineFromText(expandMachineTemplate(tmpl, clusters), m,
                         error)) {
        fatal("bad machine template (clusters=%d): %s", clusters,
              error.c_str());
    }
    return m;
}

/** Config-error check before a sweep spends any scheduling time. */
void
checkColumn(const std::string &scheduler, const MachineModel &m)
{
    std::unique_ptr<Scheduler> s =
        SchedulerRegistry::instance().create(scheduler);
    if (s == nullptr) {
        fatal("unknown scheduler '%s'", scheduler.c_str());
    }
    if (!s->supports(m)) {
        fatal("scheduler '%s' does not support machine '%s'",
              scheduler.c_str(), m.describe().c_str());
    }
}

} // namespace

LoopRun
runLoop(const Pipeline &pipeline, const Loop &loop,
        const MachineModel &machine, CompilationContext &ctx)
{
    bool ok = pipeline.run(loop, machine, ctx);

    LoopRun run;
    run.unrollFactor = ctx.body.unrollFactor();
    run.copiesInserted = ctx.prepass.copiesInserted;
    run.iterations = ctx.iterations;
    run.ok = ok;
    run.mii = ctx.result.sched.mii;
    if (!ok)
        return run;
    run.ii = ctx.result.sched.ii;
    run.movesInserted = ctx.result.sched.movesInserted;
    // Contexts are reused across cells: stale perf numbers from a
    // perf-less pipeline must not leak into this run's LoopRun.
    DMS_ASSERT(ctx.perfValid,
               "runLoop needs a pipeline with the perf stage");
    run.stageCount = ctx.perf.stageCount;
    run.cycles = ctx.perf.cycles;
    run.usefulIssues = static_cast<long>(ctx.perf.usefulOps) *
                       ctx.iterations;
    // Queue pressure flows regalloc -> perf -> LoopRun; zero when
    // the machine has no queue files or the stage is off.
    run.queueFiles = ctx.perf.queueFiles;
    run.queuesRequired = ctx.perf.queues;
    run.queueStorage = ctx.perf.queueStorage;
    run.maxLinkQueues = ctx.perf.maxLinkQueues;
    return run;
}

LoopRun
runLoopUnclustered(const Loop &loop, int width_clusters,
                   const SchedParams &params, bool verify)
{
    RunnerOptions opts;
    opts.ims = params;
    opts.verify = verify;
    Pipeline pipeline(columnOptions("ims", opts));
    CompilationContext ctx;
    return runLoop(pipeline, loop,
                   MachineModel::unclustered(width_clusters), ctx);
}

LoopRun
runLoopClustered(const Loop &loop, int clusters,
                 const DmsParams &params, bool verify, int copy_fus)
{
    RunnerOptions opts;
    opts.dms = params;
    opts.verify = verify;
    Pipeline pipeline(columnOptions("dms", opts));
    CompilationContext ctx;
    return runLoop(pipeline, loop,
                   MachineModel::clusteredRing(clusters, copy_fus),
                   ctx);
}

std::vector<ConfigRun>
runMatrix(const std::vector<Loop> &suite, const RunnerOptions &opts)
{
    const size_t loops = suite.size();
    const size_t configs =
        static_cast<size_t>(std::max(opts.maxClusters, 0));

    // Pre-size every slot so each cell owns its destination and the
    // result is ordered identically no matter how cells interleave.
    std::vector<ConfigRun> matrix(configs);
    for (size_t ci = 0; ci < configs; ++ci) {
        matrix[ci].clusters = static_cast<int>(ci) + 1;
        matrix[ci].unclustered.resize(loops);
        matrix[ci].clustered.resize(loops);
    }
    if (configs == 0 || loops == 0)
        return matrix;

    // Instantiate every machine of the sweep up front (config
    // errors surface before any scheduling happens) and pre-check
    // scheduler/machine compatibility.
    std::vector<MachineModel> unclustered_machines;
    std::vector<MachineModel> clustered_machines;
    unclustered_machines.reserve(configs);
    clustered_machines.reserve(configs);
    for (size_t ci = 0; ci < configs; ++ci) {
        const int c = static_cast<int>(ci) + 1;
        unclustered_machines.push_back(
            columnMachine(opts.unclusteredMachine, c));
        clustered_machines.push_back(
            columnMachine(opts.clusteredMachine, c));
    }
    for (size_t ci = 0; ci < configs; ++ci) {
        checkColumn(opts.unclusteredScheduler,
                    unclustered_machines[ci]);
        checkColumn(opts.clusteredScheduler, clustered_machines[ci]);
    }

    const Pipeline unclustered_pipe(
        columnOptions(opts.unclusteredScheduler, opts));
    const Pipeline clustered_pipe(
        columnOptions(opts.clusteredScheduler, opts));

    // Per-config countdown for thread-safe progress: a config line
    // prints exactly when its last cell (of 2 * loops) retires.
    std::unique_ptr<std::atomic<size_t>[]> remaining;
    if (opts.progress) {
        remaining.reset(new std::atomic<size_t>[configs]);
        for (size_t ci = 0; ci < configs; ++ci)
            remaining[ci].store(2 * loops);
    }

    // Cell index space: (config, loop, machine), machine-major last
    // so the two runs of one loop land near each other in time.
    const size_t cells = configs * loops * 2;
    const int jobs = static_cast<int>(std::min(
        cells, static_cast<size_t>(opts.jobs > 0 ? opts.jobs
                                                 : defaultJobs())));

    // One compilation context per worker slot: each context's body
    // graph and scheduler arenas are reused across all the cells
    // that worker executes, with no locking.
    std::vector<CompilationContext> contexts(
        static_cast<size_t>(jobs));

    parallelForWorker(cells, jobs, [&](size_t cell, int worker) {
        const size_t ci = cell / (loops * 2);
        const size_t rest = cell % (loops * 2);
        const size_t li = rest / 2;
        const bool clustered = (rest % 2) != 0;
        const int c = static_cast<int>(ci) + 1;
        CompilationContext &ctx =
            contexts[static_cast<size_t>(worker)];
        if (clustered) {
            matrix[ci].clustered[li] =
                runLoop(clustered_pipe, suite[li],
                        clustered_machines[ci], ctx);
        } else {
            matrix[ci].unclustered[li] =
                runLoop(unclustered_pipe, suite[li],
                        unclustered_machines[ci], ctx);
        }
        if (opts.progress &&
            remaining[ci].fetch_sub(1) == 1) {
            inform("runMatrix: %d cluster(s) done (%zu loops, "
                   "%d jobs)", c, loops, jobs);
        }
    });
    return matrix;
}

int
suiteCountFromEnv(int fallback)
{
    return envInt("DMS_SUITE_COUNT", fallback);
}

} // namespace dms
