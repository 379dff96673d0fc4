#ifndef DMS_EVAL_RUNNER_H
#define DMS_EVAL_RUNNER_H

/**
 * @file
 * Experiment runner shared by all bench binaries: schedules every
 * loop of a suite on a clustered machine and an equal-width
 * unclustered machine, after the same unrolling, exactly like the
 * paper's figures 4-6 setup.
 *
 * The sweep is configuration, not code: each column names a
 * scheduler from the registry ("dms", "ims", "twophase", ...) and a
 * declarative machine template (machine/desc.h) whose `$C`
 * placeholder is expanded per cluster count. The defaults reproduce
 * the paper's setup (DMS on a queue-file ring vs IMS on the
 * equal-width conventional machine); every cell runs the staged
 * pipeline of core/pipeline.h.
 */

#include <string>
#include <vector>

#include "core/dms.h"
#include "core/pipeline.h"
#include "workload/suite.h"

namespace dms {

/** One loop scheduled on one configuration. */
struct LoopRun
{
    bool ok = false;
    int ii = 0;
    int mii = 0;
    int stageCount = 0;
    int unrollFactor = 1;
    int movesInserted = 0;
    int copiesInserted = 0;

    /** Body iterations executed (tripCount / unrollFactor, >=1). */
    long iterations = 0;

    /** Total cycles via the modulo-schedule cycle model. */
    long cycles = 0;

    /** Useful instructions issued over the whole run. */
    long usefulIssues = 0;

    /**
     * @name Queue register pressure (regalloc stage)
     * All zero on conventional-register-file machines or when the
     * runner's regalloc switch is off.
     */
    /// @{
    int queueFiles = 0;    ///< LRF+CQRF files holding >= 1 queue
    int queuesRequired = 0; ///< total queues (one per lifetime)
    int queueStorage = 0;  ///< total storage positions
    int maxLinkQueues = 0; ///< peak queues on any one link's CQRF
    /// @}
};

/** Field-wise equality; used by determinism checks (jobs=1 vs N). */
inline bool
operator==(const LoopRun &a, const LoopRun &b)
{
    return a.ok == b.ok && a.ii == b.ii && a.mii == b.mii &&
           a.stageCount == b.stageCount &&
           a.unrollFactor == b.unrollFactor &&
           a.movesInserted == b.movesInserted &&
           a.copiesInserted == b.copiesInserted &&
           a.iterations == b.iterations && a.cycles == b.cycles &&
           a.usefulIssues == b.usefulIssues &&
           a.queueFiles == b.queueFiles &&
           a.queuesRequired == b.queuesRequired &&
           a.queueStorage == b.queueStorage &&
           a.maxLinkQueues == b.maxLinkQueues;
}

inline bool
operator!=(const LoopRun &a, const LoopRun &b)
{
    return !(a == b);
}

/** Suite results for one cluster count. */
struct ConfigRun
{
    int clusters = 0;
    std::vector<LoopRun> unclustered; ///< IMS, equal width
    std::vector<LoopRun> clustered;   ///< DMS
};

inline bool
operator==(const ConfigRun &a, const ConfigRun &b)
{
    return a.clusters == b.clusters &&
           a.unclustered == b.unclustered &&
           a.clustered == b.clustered;
}

inline bool
operator!=(const ConfigRun &a, const ConfigRun &b)
{
    return !(a == b);
}

/**
 * The paper's clustered machine as a sweep template: a `$C`-cluster
 * queue-file ring with 1 L/S + 1 ADD + 1 MUL + 1 copy unit per
 * cluster (identical to MachineModel::clusteredRing($C)).
 */
inline constexpr char kClusteredMachineTemplate[] =
    "clusters $C\n"
    "topology ring\n"
    "regfile queues\n"
    "fus ldst=1 add=1 mul=1 copy=1\n";

/**
 * The equal-width unclustered reference as a sweep template
 * (identical to MachineModel::unclustered($C)).
 */
inline constexpr char kUnclusteredMachineTemplate[] =
    "clusters 1\n"
    "topology ring\n"
    "regfile conventional\n"
    "fus ldst=$C add=$C mul=$C copy=0\n";

/** Runner switches. */
struct RunnerOptions
{
    int maxClusters = 10;
    DmsParams dms;
    SchedParams ims;

    /**
     * Registry scheduler and machine template of the "clustered"
     * column. The template is a machine/desc.h description whose
     * `$C` expands to the config's cluster count.
     */
    std::string clusteredScheduler = "dms";
    std::string clusteredMachine = kClusteredMachineTemplate;

    /** Same for the "unclustered" reference column. */
    std::string unclusteredScheduler = "ims";
    std::string unclusteredMachine = kUnclusteredMachineTemplate;

    /** Verify every schedule (panic on an illegal one). */
    bool verify = true;

    /**
     * Run queue register allocation on queue-file machines (any
     * topology) and record the pressure stats in each LoopRun, so
     * sweeps report full-pipeline numbers rather than
     * schedule-only ones.
     */
    bool regalloc = true;

    /**
     * Audit every cell's artifacts with the static-analysis layer
     * (PipelineOptions::analyze); panics on any diagnostic. The
     * audit is observational, so analyzed sweeps stay bit-identical
     * to plain ones. Also switched on by DMS_ANALYZE=1.
     */
    bool analyze = false;

    /** Progress lines on stderr. */
    bool progress = true;

    /**
     * Worker threads for the matrix: each (loop, cluster-count,
     * machine) cell is an independent scheduling problem, so the
     * matrix parallelizes cell-wise with results written to
     * pre-sized slots — output is deterministic and identical to
     * the serial order regardless of jobs. 0 means defaultJobs()
     * (DMS_JOBS, else hardware concurrency), resolved once per
     * runMatrix; 1 runs every cell inline on the caller. A matrix
     * never gets more threads, or compilation contexts, than it
     * has cells.
     */
    int jobs = 0;
};

/**
 * Run the staged pipeline for one loop and summarize the context
 * into a LoopRun — the cell primitive every sweep builds on.
 */
LoopRun runLoop(const Pipeline &pipeline, const Loop &loop,
                const MachineModel &machine,
                CompilationContext &ctx);

/** Schedule one loop with IMS on the unclustered width-C machine. */
LoopRun runLoopUnclustered(const Loop &loop, int width_clusters,
                           const SchedParams &params, bool verify);

/** Schedule one loop with DMS on the C-cluster ring. */
LoopRun runLoopClustered(const Loop &loop, int clusters,
                         const DmsParams &params, bool verify,
                         int copy_fus = 1);

/**
 * The full matrix: for every cluster count in [1, maxClusters],
 * every loop on both machines. This is the data behind figures
 * 4, 5 and 6.
 */
std::vector<ConfigRun> runMatrix(const std::vector<Loop> &suite,
                                 const RunnerOptions &opts = {});

/**
 * Suite size override for quick runs: reads the DMS_SUITE_COUNT
 * environment variable through envInt (defaults to @p fallback).
 * Values that are not a positive integer — garbage, trailing junk
 * like "12x", or numbers that overflow int — are rejected with a
 * warning.
 */
int suiteCountFromEnv(int fallback = 1258);

} // namespace dms

#endif // DMS_EVAL_RUNNER_H
