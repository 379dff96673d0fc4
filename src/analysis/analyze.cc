#include "analysis/analyze.h"

#include "codegen/emit.h"
#include "machine/desc.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "regalloc/sharing.h"
#include "workload/text.h"

namespace dms {

int
runChecks(const AnalysisInput &input, const std::string &subject,
          DiagnosticSink &sink)
{
    const int before = static_cast<int>(sink.diagnostics().size());
    sink.setSubject(subject);
    for (const Check &c : allChecks())
        c.run(c, input, sink);
    return static_cast<int>(sink.diagnostics().size()) - before;
}

int
lintMachineText(const std::string &text, const std::string &subject,
                DiagnosticSink &sink)
{
    AnalysisInput input;
    input.machineText = &text;
    MachineModel machine = MachineModel::unclustered(1);
    std::string error;
    if (machineFromText(text, machine, error))
        input.machine = &machine;
    return runChecks(input, subject, sink);
}

int
lintMachineTemplate(const std::string &tmpl,
                    const std::string &subject, DiagnosticSink &sink)
{
    AnalysisInput input;
    input.machineTemplate = &tmpl;
    // Semantic machine checks run on a representative expansion;
    // machine.template-expand covers the other cluster counts.
    const std::string expanded = expandMachineTemplate(tmpl, 4);
    MachineModel machine = MachineModel::unclustered(1);
    std::string error;
    if (machineFromText(expanded, machine, error)) {
        input.machineText = &expanded;
        input.machine = &machine;
    }
    return runChecks(input, subject, sink);
}

int
lintLoopText(const std::string &text, const std::string &subject,
             DiagnosticSink &sink, const MachineModel *machine)
{
    AnalysisInput input;
    input.loopText = &text;
    input.machine = machine;
    Loop loop;
    std::string error;
    const LatencyModel lat =
        machine != nullptr ? machine->latency() : LatencyModel();
    if (loopFromText(text, loop, error, lat))
        input.loop = &loop;
    return runChecks(input, subject, sink);
}

int
lintLoop(const Loop &loop, const std::string &subject,
         DiagnosticSink &sink)
{
    AnalysisInput input;
    input.loop = &loop;
    return runChecks(input, subject, sink);
}

int
lintCompiled(const MachineModel &machine, const Ddg &scheduledDdg,
             const PartialSchedule &schedule,
             const QueueAllocation *queues, const PipelinedLoop *kernel,
             const std::string &subject, DiagnosticSink &sink)
{
    const ScheduleView view = viewOf(schedule);
    AnalysisInput input;
    input.machine = &machine;
    input.ddg = &scheduledDdg;
    input.schedule = &view;
    SharedAllocation sharing;
    if (queues != nullptr) {
        input.queues = queues;
        sharing = shareQueues(*queues, scheduledDdg, schedule);
        input.sharing = &sharing;
    }
    std::string kernel_text;
    if (kernel != nullptr) {
        input.kernel = kernel;
        kernel_text = emitKernel(scheduledDdg, machine, *kernel, queues);
        input.kernelText = &kernel_text;
    }
    return runChecks(input, subject, sink);
}

int
lintMetricsText(const std::string &text, const std::string &subject,
                DiagnosticSink &sink)
{
    AnalysisInput input;
    input.metricsText = &text;
    obs::MetricsSnapshot snapshot;
    std::string error;
    if (obs::metricsFromText(text, snapshot, error))
        input.metrics = &snapshot;
    return runChecks(input, subject, sink);
}

int
lintTraceText(const std::string &text, const std::string &subject,
              DiagnosticSink &sink)
{
    AnalysisInput input;
    input.traceText = &text;
    std::vector<std::vector<obs::TraceSpan>> traces;
    std::string error;
    if (obs::tracesFromJson(text, traces, error))
        input.traceSpans = &traces;
    return runChecks(input, subject, sink);
}

} // namespace dms
