#ifndef DMS_ANALYSIS_CHECK_H
#define DMS_ANALYSIS_CHECK_H

/**
 * @file
 * The checker interface and its name-keyed registry (same idiom as
 * the scheduler registry). Each checker is *independent* of the
 * pipeline internals it audits: it re-derives the property it
 * checks from first principles — recounting reservation rows from
 * raw placements, recomputing lifetime spans from schedule times,
 * re-walking reachability over the link graph — instead of calling
 * the code that produced the artifact. A checker therefore fails
 * loudly when the pipeline and the check disagree, whichever of
 * the two is wrong.
 *
 * An AnalysisInput bundles whatever artifacts the caller has;
 * every registered check whose inputs are present runs. Schedules
 * are audited through the flat ScheduleView (plain placements +
 * II), so tests can seed defects without fighting the invariants
 * PartialSchedule enforces by construction.
 */

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostic.h"
#include "codegen/kernel.h"
#include "machine/machine.h"
#include "regalloc/queue_alloc.h"
#include "regalloc/sharing.h"
#include "sched/schedule.h"
#include "workload/kernels.h"

namespace dms {

namespace obs {
struct MetricsSnapshot; // obs/metrics.h
struct TraceSpan;       // obs/trace.h
} // namespace obs

/**
 * Flat, freely mutable view of a (complete or partial) modulo
 * schedule: one Placement per DDG op id. The audit checks consume
 * this instead of PartialSchedule so that (a) they cannot lean on
 * the reservation table they are supposed to recount and (b) the
 * seeded-defect corpus can construct illegal schedules, which
 * PartialSchedule's own API rules out by construction.
 */
struct ScheduleView
{
    int ii = 1;

    /** Indexed by OpId; ops beyond the vector are unscheduled. */
    std::vector<Placement> placements;

    bool
    scheduled(OpId op) const
    {
        return op >= 0 &&
               op < static_cast<OpId>(placements.size()) &&
               placements[static_cast<size_t>(op)].scheduled();
    }

    const Placement &
    at(OpId op) const
    {
        return placements[static_cast<size_t>(op)];
    }
};

/** Snapshot a PartialSchedule into the flat audit view. */
ScheduleView viewOf(const PartialSchedule &ps);

/**
 * Everything a lint/audit run may look at. All fields optional;
 * each check declares (via applicable()) which ones it needs.
 * Text fields, when present, let checkers attach line numbers.
 */
struct AnalysisInput
{
    /** @name Textual artifacts */
    /// @{
    const std::string *machineText = nullptr;
    const std::string *machineTemplate = nullptr;
    const std::string *loopText = nullptr;
    const std::string *kernelText = nullptr;
    const std::string *metricsText = nullptr;
    const std::string *traceText = nullptr; ///< trace_event JSON
    /// @}

    /** @name Parsed / compiled artifacts */
    /// @{
    const MachineModel *machine = nullptr;
    const Loop *loop = nullptr;
    const Ddg *ddg = nullptr; ///< the scheduled (transformed) graph
    const ScheduleView *schedule = nullptr;
    const QueueAllocation *queues = nullptr;
    const SharedAllocation *sharing = nullptr;
    const PipelinedLoop *kernel = nullptr;
    const obs::MetricsSnapshot *metrics = nullptr;

    /** Span trees grouped by trace, in tid order. */
    const std::vector<std::vector<obs::TraceSpan>> *traceSpans =
        nullptr;
    /// @}

    /** Latency model for parsing loop text (machine's if present). */
    const LatencyModel *latency = nullptr;
};

/** One independent checker behind a stable registry id. */
class Check
{
  public:
    virtual ~Check() = default;

    /** Stable id, e.g. "sched.resource-overuse". */
    virtual const char *id() const = 0;

    /** One-line description for the README table and --list. */
    virtual const char *description() const = 0;

    /** Artifact kind this check audits. */
    virtual ArtifactKind artifact() const = 0;

    /** True when @p input carries everything this check needs. */
    virtual bool applicable(const AnalysisInput &input) const = 0;

    /** Run; report findings into @p sink. */
    virtual void run(const AnalysisInput &input,
                     DiagnosticSink &sink) const = 0;
};

/**
 * Id-keyed checker registry. Builtin checks are registered on
 * first use; add() is not thread-safe against concurrent lookups —
 * register extra checks before spawning sweeps.
 */
class CheckRegistry
{
  public:
    /** The process-wide registry, builtins included. */
    static CheckRegistry &instance();

    /** Register a check; false (and no change) if the id is
     * taken. */
    bool add(std::unique_ptr<Check> check);

    /** Look up by id, or null. */
    const Check *find(std::string_view id) const;

    /** Every registered check, ordered by id. */
    std::vector<const Check *> checks() const;

    /**
     * Run every check applicable to @p input. Returns the number
     * of checks that ran.
     */
    int runAll(const AnalysisInput &input,
               DiagnosticSink &sink) const;

  private:
    CheckRegistry();

    std::vector<std::unique_ptr<Check>> checks_;
};

/** Registers the builtin machine/loop/schedule/queue/kernel/obs
 * checks. */
void registerBuiltinChecks(CheckRegistry &registry);

} // namespace dms

#endif // DMS_ANALYSIS_CHECK_H
