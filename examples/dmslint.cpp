/**
 * @file
 * dmslint — the static-analysis front-end: lints any pipeline
 * artifact through the analysis/ check table and exits with the
 * maximum severity found.
 *
 * Usage:
 *   dmslint [options] <target>...
 *
 * Targets:
 *   FILE           auto-detected: a machine description, a `$C`
 *                  machine sweep template, a loop body in the
 *                  workload/text format, a `dmsmetrics v1`
 *                  snapshot (dmsd --metrics-out), or a trace_event
 *                  JSON export (dmsd --trace-out)
 *   kernel:NAME    a built-in kernel ("kernel:fir8")
 *   kernel:*       every built-in kernel
 *
 * Options:
 *   --compile       additionally compile each loop target and audit
 *                   the schedule, queue allocation and emitted
 *                   kernel
 *   --machine FILE  machine for --compile (default: the paper's
 *                   4-cluster ring)
 *   --sched NAME    registry scheduler for --compile (default dms)
 *   --json          render diagnostics as JSON instead of text
 *   --list          list every check and exit
 *
 * Diagnostics go to stdout, one line per finding (nothing when
 * clean). Exit code: 0 clean, 1 worst is a note, 2 warning,
 * 3 error.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyze.h"
#include "core/pipeline.h"
#include "machine/desc.h"
#include "support/diag.h"
#include "support/strings.h"
#include "workload/text.h"

namespace {

using namespace dms;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open '%s'", path.c_str());
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** What a target file contains, judged from its text alone. */
enum class TargetKind {
    Machine,
    Template,
    LoopText,
    Metrics,
    Trace,
};

TargetKind
detectKind(const std::string &text)
{
    // A trace export is the one non-line-keyed format: a JSON
    // array, so the first non-space byte is '['.
    for (char c : text) {
        if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
            continue;
        if (c == '[')
            return TargetKind::Trace;
        break;
    }
    if (text.find("$C") != std::string::npos)
        return TargetKind::Template;
    // A machine description opens with one of its keys, a metrics
    // snapshot with its versioned header; anything else is treated
    // as loop text (whose own first key is "loop").
    for (const std::string &raw : split(text, '\n')) {
        const std::string line = trim(raw);
        if (line.empty() || line[0] == '#')
            continue;
        const std::string key =
            line.substr(0, line.find_first_of(" \t"));
        if (key == "machine" || key == "clusters" ||
            key == "topology" || key == "regfile" || key == "fus" ||
            key == "latency")
            return TargetKind::Machine;
        if (key == "dmsmetrics")
            return TargetKind::Metrics;
        break;
    }
    return TargetKind::LoopText;
}

/** Compile @p loop and audit every artifact the pipeline made. */
void
auditCompiled(const Loop &loop, const MachineModel &machine,
              const std::string &sched, const std::string &subject,
              DiagnosticSink &sink)
{
    PipelineOptions po;
    po.scheduler = sched;
    po.regalloc = true;
    po.codegen = true;
    // The point of the audit is to report, not to panic first.
    po.verify = false;
    po.perf = false;
    const Pipeline pipeline(po);
    CompilationContext ctx;
    if (!pipeline.run(loop, machine, ctx))
        fatal("scheduling '%s' failed on %s", loop.name.c_str(),
              machine.describe().c_str());

    lintCompiled(machine, ctx.scheduledDdg(), *ctx.result.sched.schedule,
                 ctx.queuesValid ? &ctx.queues : nullptr,
                 ctx.kernelValid ? &ctx.kernel : nullptr, subject,
                 sink);
}

void
listChecks()
{
    for (const Check &c : allChecks()) {
        std::printf("%-26s %-16s %s\n", c.id,
                    artifactKindName(c.artifact), c.description);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace dms;
    bool json = false;
    bool compile = false;
    std::string machine_file;
    std::string sched = "dms";
    std::vector<std::string> targets;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("%s needs a value", a.c_str());
            return argv[++i];
        };
        if (a == "--json")
            json = true;
        else if (a == "--compile")
            compile = true;
        else if (a == "--machine")
            machine_file = next();
        else if (a == "--sched")
            sched = next();
        else if (a == "--list") {
            listChecks();
            return 0;
        } else if (!a.empty() && a[0] == '-')
            fatal("unknown option '%s'", a.c_str());
        else
            targets.push_back(a);
    }
    if (targets.empty())
        fatal("usage: dmslint [--json] [--compile] [--machine FILE] "
              "[--sched NAME] <file | kernel:NAME | kernel:*>...");

    const MachineModel machine =
        machine_file.empty()
            ? MachineModel::clusteredRing(4)
            : machineFromTextOrDie(readFile(machine_file));

    DiagnosticSink sink;
    for (const std::string &target : targets) {
        if (target == "kernel:*") {
            for (const Loop &loop : namedKernels()) {
                const std::string subject = "kernel:" + loop.name;
                lintLoop(loop, subject, sink);
                if (compile)
                    auditCompiled(loop, machine, sched, subject,
                                  sink);
            }
            continue;
        }
        if (target.rfind("kernel:", 0) == 0) {
            Loop loop;
            std::string error;
            if (!loadLoopSpec(target, loop, error))
                fatal("%s", error.c_str());
            lintLoop(loop, target, sink);
            if (compile)
                auditCompiled(loop, machine, sched, target, sink);
            continue;
        }
        const std::string text = readFile(target);
        switch (detectKind(text)) {
        case TargetKind::Machine:
            lintMachineText(text, target, sink);
            break;
        case TargetKind::Template:
            lintMachineTemplate(text, target, sink);
            break;
        case TargetKind::LoopText: {
            lintLoopText(text, target, sink, &machine);
            if (compile) {
                Loop loop;
                std::string error;
                if (loopFromText(text, loop, error,
                                 machine.latency()))
                    auditCompiled(loop, machine, sched, target,
                                  sink);
            }
            break;
        }
        case TargetKind::Metrics:
            lintMetricsText(text, target, sink);
            break;
        case TargetKind::Trace:
            lintTraceText(text, target, sink);
            break;
        }
    }

    std::fputs(json ? sink.renderJson().c_str()
                    : sink.renderText().c_str(),
               stdout);
    return sink.exitCode();
}
