#ifndef DMS_CORE_PIPELINE_H
#define DMS_CORE_PIPELINE_H

/**
 * @file
 * The staged compilation pipeline: one explicit flow
 *
 *   unroll -> prepass -> mii -> schedule -> regalloc -> codegen
 *          -> verify -> perf
 *
 * replacing the ad-hoc call chains the bench binaries and the
 * evaluation runner used to hardwire. A Pipeline is configured once
 * (scheduler name from the registry, optional stages switched on or
 * off) and then run per loop against a CompilationContext, which
 * owns every cross-stage artifact and the reusable arenas — one
 * context per worker thread keeps a sweep allocation-friendly and
 * lock-free.
 *
 * Stage contract: each stage reads the context its predecessors
 * filled and returns false to stop the flow (only `schedule` can
 * fail in normal operation — an II search that hit its cap). The
 * verify stage panics on an illegal schedule: that is a scheduler
 * bug, never a data condition.
 */

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "codegen/kernel.h"
#include "codegen/perf.h"
#include "ir/prepass.h"
#include "obs/trace.h"
#include "regalloc/queue_alloc.h"
#include "sched/scheduler.h"
#include "support/faultinject.h"
#include "workload/kernels.h"

namespace dms {

/** Pipeline configuration; defaults mirror the figure benches. */
struct PipelineOptions
{
    /** Registry name of the scheduler stage ("ims", "dms", ...). */
    std::string scheduler = "dms";

    /** Knobs forwarded to the scheduler. */
    SchedulerConfig config;

    /** Unroll factor: 0 applies the analytic policy, >= 1 forces. */
    int forceUnroll = 0;
    int unrollMaxFactor = 8;
    int unrollMaxOps = 512;

    /** Panic on an illegal schedule (the figure-bench default). */
    bool verify = true;

    /** Queue register allocation (queue-file machines, any
     *  topology). */
    bool regalloc = false;

    /** Kernel construction (prologue/kernel/epilogue shape). */
    bool codegen = false;

    /** Static performance model (cycles, useful IPC). */
    bool perf = true;

    /**
     * Independent static-analysis audit of every artifact the run
     * produced (schedule, queue allocation, kernel) through
     * lintCompiled (analysis/analyze.h); panics on any diagnostic, like
     * verify. Also switched on by the environment knob
     * DMS_ANALYZE=1. Purely observational: an analyzed run's
     * artifacts are bit-identical to an unanalyzed one.
     */
    bool analyze = false;
};

/**
 * Owns the artifacts flowing between stages and the per-context
 * scheduler instances. Reusable: compile after compile, the unroll
 * stage rebuilds @c body in place (unrollDdg keeps its op slots,
 * their adjacency buffers and the edge array), and the scheduler
 * arenas recycle theirs.
 */
class CompilationContext
{
  public:
    /** @name Stage artifacts (in pipeline order) */
    /// @{
    Ddg body;               ///< unrolled (+ pre-passed) body, reused
    PrepassStats prepass{}; ///< copy pre-pass statistics
    int resMii = 0;
    int recMii = 0;
    int mii = 0;
    SchedulerResult result; ///< schedule + transformed graph
    QueueAllocation queues; ///< valid iff queuesValid
    bool queuesValid = false;
    PipelinedLoop kernel; ///< valid iff kernelValid
    bool kernelValid = false;
    LoopPerf perf{}; ///< valid iff perfValid
    bool perfValid = false;
    long iterations = 0; ///< body iterations (trip / unroll)
    /// @}

    /**
     * Optional cooperative cancellation, polled between stages: a
     * run whose token reports cancelled (deadline expiry or an
     * explicit cancel) throws CancelledError instead of entering
     * the next stage, so an expired request stops burning a worker.
     * Null (the default) is the zero-cost common case.
     */
    const CancelToken *cancel = nullptr;

    /**
     * Optional request trace: when non-null, Pipeline::run opens
     * one span per stage (the same boundaries cancel polling and
     * fault injection instrument) and the schedulers add II-ladder
     * rung spans. Null (the default) is the zero-cost common case
     * — tracing must never perturb a schedule.
     */
    obs::Trace *trace = nullptr;

    /**
     * The graph the schedule refers to: the scheduler's transformed
     * graph when it produced one, the pre-passed body otherwise.
     */
    const Ddg &
    scheduledDdg() const
    {
        return result.ddg ? *result.ddg : body;
    }

    /**
     * The per-context scheduler instance for @p name, created from
     * the registry on first use and cached. fatal()s on unknown
     * names (a configuration error).
     */
    Scheduler &scheduler(const std::string &name);

  private:
    std::map<std::string, std::unique_ptr<Scheduler>> schedulers_;
};

/** The staged flow, built once per configuration. */
class Pipeline
{
  public:
    explicit Pipeline(PipelineOptions options = {});

    const PipelineOptions &options() const { return opts_; }

    /** Stage names in execution order (disabled stages omitted). */
    std::vector<std::string> stageNames() const;

    /**
     * Run every stage for @p loop on @p machine. Returns false when
     * a stage stopped the flow (schedule failure); @p ctx then holds
     * the artifacts of the stages that did run.
     */
    bool run(const Loop &loop, const MachineModel &machine,
             CompilationContext &ctx) const;

  private:
    struct Stage
    {
        const char *name;
        std::string faultSite; ///< "pipeline.<name>"
        std::function<bool(const PipelineOptions &, const Loop &,
                           const MachineModel &,
                           CompilationContext &)>
            fn;
    };

    PipelineOptions opts_;
    std::vector<Stage> stages_;
};

} // namespace dms

#endif // DMS_CORE_PIPELINE_H
