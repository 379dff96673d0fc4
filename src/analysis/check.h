#ifndef DMS_ANALYSIS_CHECK_H
#define DMS_ANALYSIS_CHECK_H

/**
 * @file
 * The check record and the table of every builtin check. Each
 * checker is *independent* of the pipeline internals it audits: it
 * re-derives the property it checks from first principles —
 * recounting reservation rows from raw placements, recomputing
 * lifetime spans from schedule times, re-walking reachability over
 * the link graph — instead of calling the code that produced the
 * artifact. A checker therefore fails loudly when the pipeline and
 * the check disagree, whichever of the two is wrong.
 *
 * An AnalysisInput bundles whatever artifacts the caller has; every
 * check runs and skips itself when an input it reads is absent.
 * Schedules are audited through the flat ScheduleView (plain
 * placements + II), so tests can seed defects without fighting the
 * invariants PartialSchedule enforces by construction.
 */

#include <string>
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
 * each check returns without a finding when one it reads is null.
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

/**
 * One independent checker: a stable id, a description, the artifact
 * kind it audits and the function that audits it. A check is plain
 * constant data, so the builtin tables are constant-initialised.
 */
struct Check
{
    /** Stable id, e.g. "sched.resource-overuse". */
    const char *id;

    /** One-line description for the README table and --list. */
    const char *description;

    /** Artifact kind this check audits. */
    ArtifactKind artifact;

    /**
     * Audit @p input and report findings into @p sink under
     * @p self's id and artifact. Returns at once when an input the
     * check reads is absent.
     */
    void (*run)(const Check &self, const AnalysisInput &input,
                DiagnosticSink &sink);
};

/**
 * Every builtin check, ordered by id: the one list that runChecks,
 * `dmslint --list` and the tests iterate. Built once, on first use.
 */
const std::vector<Check> &allChecks();

} // namespace dms

#endif // DMS_ANALYSIS_CHECK_H
