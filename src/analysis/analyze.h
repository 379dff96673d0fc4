#ifndef DMS_ANALYSIS_ANALYZE_H
#define DMS_ANALYSIS_ANALYZE_H

/**
 * @file
 * Entry points of the static-analysis layer, shared by the dmslint
 * CLI, the opt-in pipeline `analyze` stage (PipelineOptions::analyze
 * / DMS_ANALYZE=1) and the tests. Each helper assembles an
 * AnalysisInput for one artifact, stamps the sink's subject and
 * runs every check in allChecks(); the return value is the number
 * of diagnostics the run added.
 */

#include <string>

#include "analysis/check.h"

namespace dms {

/** Run every check over @p input under @p subject. */
int runChecks(const AnalysisInput &input, const std::string &subject,
              DiagnosticSink &sink);

/** Lint one machine description text. */
int lintMachineText(const std::string &text,
                    const std::string &subject,
                    DiagnosticSink &sink);

/**
 * Lint one `$C` machine sweep template: expansion across cluster
 * counts plus the semantic machine checks on a representative
 * expansion.
 */
int lintMachineTemplate(const std::string &tmpl,
                        const std::string &subject,
                        DiagnosticSink &sink);

/**
 * Lint one loop description text. Flow-edge latencies come from
 * @p machine when given, else the default table.
 */
int lintLoopText(const std::string &text, const std::string &subject,
                 DiagnosticSink &sink,
                 const MachineModel *machine = nullptr);

/** Lint an in-memory loop (built-in kernels have no text form). */
int lintLoop(const Loop &loop, const std::string &subject,
             DiagnosticSink &sink);

/**
 * Audit one compilation: @p scheduledDdg placed by @p schedule on
 * @p machine, plus the queue allocation and the kernel when given.
 * The schedule view, the queue sharing (when @p queues is given)
 * and the emitted kernel text (when @p kernel is given) are derived
 * into locals, so the audit never writes back into the caller's
 * artifacts.
 */
int lintCompiled(const MachineModel &machine, const Ddg &scheduledDdg,
                 const PartialSchedule &schedule,
                 const QueueAllocation *queues,
                 const PipelinedLoop *kernel,
                 const std::string &subject, DiagnosticSink &sink);

/**
 * Lint one `dmsmetrics v1` snapshot (the text form metricsToText
 * emits, `dmsd --metrics-out` writes and the `metrics` wire verb
 * serves). Parse failures are reported through the sink.
 */
int lintMetricsText(const std::string &text,
                    const std::string &subject,
                    DiagnosticSink &sink);

/**
 * Lint one trace export (the Chrome trace_event JSON tracesToJson
 * emits and `dmsd --trace-out` writes). Parse failures are
 * reported through the sink.
 */
int lintTraceText(const std::string &text,
                  const std::string &subject, DiagnosticSink &sink);

} // namespace dms

#endif // DMS_ANALYSIS_ANALYZE_H
