#ifndef DMS_ANALYSIS_DIAGNOSTIC_H
#define DMS_ANALYSIS_DIAGNOSTIC_H

/**
 * @file
 * The diagnostic engine of the static-analysis layer (dmslint and
 * the opt-in pipeline `analyze` stage). Deliberately independent of
 * the compilation pipeline: checkers re-derive properties from
 * first principles and report through this engine, so a shared-fate
 * bug in the compiler cannot silence the report about it.
 *
 * Every diagnostic carries a *stable check id* (e.g.
 * "sched.resource-overuse"), a severity, the artifact kind it was
 * found in, and a structured location (text line, op, edge, cycle,
 * link — whichever apply). Rendering is deterministic in both the
 * human-readable text form and the JSON form, which is what lets
 * golden tests pin dmslint output byte-for-byte.
 */

#include <string>
#include <vector>

#include "support/types.h"

namespace dms {

/** How bad a finding is; ordered for max-severity exit codes. */
enum class Severity : std::uint8_t {
    Note,     ///< stylistic / informational (canonical form, ...)
    Warning,  ///< suspicious but not provably wrong
    Error,    ///< the artifact violates a hard invariant
};

/** Lower-case severity mnemonic, e.g. "warning". */
const char *severityName(Severity s);

/** Which declarative artifact a diagnostic refers to. */
enum class ArtifactKind : std::uint8_t {
    Machine,          ///< machine/desc.h description
    MachineTemplate,  ///< `$C` sweep template
    Loop,             ///< workload/text.h loop body
    Schedule,         ///< modulo-schedule placements
    QueueAlloc,       ///< queue register allocation
    Kernel,           ///< pipelined kernel / emitted code
    Metrics,          ///< obs/metrics.h `dmsmetrics v1` snapshot
    Trace,            ///< obs/trace.h trace_event span export
};

/** Lower-case artifact mnemonic, e.g. "schedule". */
const char *artifactKindName(ArtifactKind kind);

/**
 * Structured source location. Each field is optional (sentinel =
 * absent); checkers fill whichever coordinates exist for the
 * artifact: text line for descriptions, op/edge for graphs,
 * cycle/cluster/link for schedules and allocations.
 */
struct DiagLocation
{
    int line = 0;      ///< 1-based text line, 0 = none
    OpId op = kInvalidOp;
    EdgeId edge = kInvalidEdge;
    Cycle cycle = -1;  ///< schedule cycle or kernel row, -1 = none
    ClusterId cluster = kInvalidCluster;
    int link = -1;     ///< directed inter-cluster link id

    bool any() const;

    /** Render the present coordinates, e.g. "op 7, cycle 12". */
    std::string str() const;
};

/** One finding. */
struct Diagnostic
{
    std::string checkId;  ///< stable id, e.g. "machine.parse"
    Severity severity = Severity::Error;
    ArtifactKind artifact = ArtifactKind::Machine;

    /** What was linted: a file path, "kernel:NAME", a stage label. */
    std::string subject;

    DiagLocation loc;
    std::string message;

    /**
     * One-line rendering:
     *   severity[check-id] subject:line: message (op 3, cycle 7)
     * with absent coordinates omitted.
     */
    std::string render() const;
};

/**
 * Collects diagnostics from any number of checkers and renders the
 * batch. A `subject` label (set once per linted target) is stamped
 * onto every report, so multi-target runs stay attributable.
 */
class DiagnosticSink
{
  public:
    /** Label attached to subsequent report() calls. */
    void setSubject(std::string subject)
    {
        subject_ = std::move(subject);
    }
    const std::string &subject() const { return subject_; }

    void report(const char *check_id, Severity severity,
                ArtifactKind artifact, const DiagLocation &loc,
                std::string message);

    const std::vector<Diagnostic> &diagnostics() const
    {
        return diags_;
    }
    bool empty() const { return diags_.empty(); }
    int count(Severity s) const;

    /** Highest severity reported; Note when empty. */
    Severity maxSeverity() const;

    /**
     * Process exit code for CLI front-ends: 0 = clean, else
     * 1 + max severity (note 1, warning 2, error 3).
     */
    int exitCode() const;

    /** One render() line per diagnostic, in report order. */
    std::string renderText() const;

    /** JSON array of diagnostic objects, stable field order. */
    std::string renderJson() const;

  private:
    std::string subject_;
    std::vector<Diagnostic> diags_;
};

} // namespace dms

#endif // DMS_ANALYSIS_DIAGNOSTIC_H
