/**
 * @file
 * Semantic lint of declarative machine descriptions. The checks
 * reparse the text themselves (machine.parse) and interrogate the
 * resulting model for configurations that are legal to construct
 * but cannot mean what the author intended: FU classes absent from
 * the whole machine, non-positive latencies for value-producing
 * opcodes, copy units on a machine whose register file never needs
 * them, and `$C` sweep templates that stop expanding for some
 * cluster counts.
 */

#include <iterator>

#include "analysis/builtin_checks.h"
#include "analysis/lint_util.h"
#include "machine/desc.h"
#include "support/diag.h"

namespace dms {
namespace lint {

namespace {

/** Key used for a FU class in the `fus` line of the text format. */
const char *
fuKeyName(FuClass cls)
{
    switch (cls) {
    case FuClass::LdSt:
        return "ldst";
    case FuClass::Add:
        return "add";
    case FuClass::Mul:
        return "mul";
    case FuClass::Copy:
        return "copy";
    case FuClass::kNumClasses:
        break;
    }
    return "?";
}

void
machineParse(const Check &self, const AnalysisInput &input,
             DiagnosticSink &sink)
{
    if (input.machineText == nullptr)
        return;
    MachineModel machine = MachineModel::unclustered(1);
    std::string error;
    if (machineFromText(*input.machineText, machine, error))
        return;
    DiagLocation loc;
    std::string message;
    loc.line = splitErrorLine(error, message);
    sink.report(self.id, Severity::Error, self.artifact, loc, message);
}

void
fuDeadClass(const Check &self, const AnalysisInput &input,
            DiagnosticSink &sink)
{
    if (input.machine == nullptr)
        return;
    static const FuClass kUseful[] = {FuClass::LdSt,
                                      FuClass::Add,
                                      FuClass::Mul};
    DiagLocation loc;
    if (input.machineText != nullptr)
        loc.line = findKeyLine(*input.machineText, "fus");
    for (FuClass cls : kUseful) {
        if (input.machine->totalFus(cls) > 0)
            continue;
        sink.report(
            self.id, Severity::Warning, self.artifact, loc,
            strfmt("machine has no %s units in any cluster; "
                   "%s-class operations can never be scheduled",
                   fuKeyName(cls), fuClassName(cls)));
    }
}

void
latencyNonpositive(const Check &self, const AnalysisInput &input,
                   DiagnosticSink &sink)
{
    if (input.machine == nullptr)
        return;
    for (int i = 0; i < kNumOpcodes; ++i) {
        const Opcode opc = static_cast<Opcode>(i);
        if (!producesValue(opc))
            continue;
        const int lat = input.machine->latencyOf(opc);
        if (lat >= 1)
            continue;
        DiagLocation loc;
        if (input.machineText != nullptr)
            loc.line = findEntryLine(
                *input.machineText, "latency",
                std::string(opcodeName(opc)) + "=");
        sink.report(
            self.id, Severity::Warning, self.artifact, loc,
            strfmt("latency %d for value-producing opcode %s; "
                   "results would be ready the cycle they "
                   "issue",
                   lat, opcodeName(opc)));
    }
}

void
copyUnused(const Check &self, const AnalysisInput &input,
           DiagnosticSink &sink)
{
    if (input.machine == nullptr)
        return;
    if (input.machine->regFileKind() != RegFileKind::Conventional)
        return;
    const int copies =
        input.machine->fusPerCluster(FuClass::Copy);
    if (copies == 0)
        return;
    DiagLocation loc;
    if (input.machineText != nullptr)
        loc.line = findKeyLine(*input.machineText, "fus");
    sink.report(
        self.id, Severity::Warning, self.artifact, loc,
        strfmt("%d copy unit%s per cluster on a conventional "
               "register file; copy and move operations are "
               "only inserted for queue files, so these units "
               "are dead hardware",
               copies, copies == 1 ? "" : "s"));
}

void
templateExpand(const Check &self, const AnalysisInput &input,
               DiagnosticSink &sink)
{
    if (input.machineTemplate == nullptr)
        return;
    static const int kCounts[] = {1, 2, 4, 8};
    const int total =
        static_cast<int>(sizeof(kCounts) / sizeof(kCounts[0]));
    int failures = 0;
    int first_count = 0;
    std::string first_message;
    int first_line = 0;
    for (int clusters : kCounts) {
        const std::string text = expandMachineTemplate(
            *input.machineTemplate, clusters);
        MachineModel machine = MachineModel::unclustered(1);
        std::string error;
        if (machineFromText(text, machine, error))
            continue;
        ++failures;
        if (failures == 1) {
            first_count = clusters;
            // Expansion substitutes within lines, so the inner
            // line number maps 1:1 onto the template.
            first_line = splitErrorLine(error, first_message);
        }
    }
    if (failures == 0)
        return;
    DiagLocation loc;
    loc.line = first_line;
    sink.report(
        self.id, Severity::Error, self.artifact, loc,
        strfmt("template fails to expand for %d of %d cluster "
               "counts (first at $C=%d: %s)",
               failures, total, first_count,
               first_message.c_str()));
}

constexpr Check kTable[] = {
    {"machine.copy-unused",
     "copy units only on machines whose register file needs them",
     ArtifactKind::Machine, copyUnused},
    {"machine.fu-dead-class",
     "every useful FU class exists somewhere on the machine",
     ArtifactKind::Machine, fuDeadClass},
    {"machine.latency-nonpositive",
     "value-producing opcodes have latency >= 1",
     ArtifactKind::Machine, latencyNonpositive},
    {"machine.parse",
     "machine description parses cleanly",
     ArtifactKind::Machine, machineParse},
    {"machine.template-expand",
     "$C sweep template expands for every cluster count",
     ArtifactKind::MachineTemplate, templateExpand},
};

} // namespace

const CheckTable kMachineChecks = {std::begin(kTable),
                                   std::end(kTable)};

} // namespace lint
} // namespace dms
