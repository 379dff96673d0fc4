/**
 * @file
 * Lint of loop bodies (the DDG the schedulers consume). Beyond
 * reparsing the textual form, the checks look for graphs that are
 * structurally legal but almost certainly not what the author
 * meant: stores with no value to store, results nobody reads, and
 * arithmetic whose operands are all implicitly loop-invariant.
 * Locations carry the op id and, when the text is available, the
 * 1-based line of the op's `op` directive (the k-th op line defines
 * DDG op k).
 */

#include <iterator>

#include "analysis/builtin_checks.h"
#include "analysis/lint_util.h"
#include "support/diag.h"
#include "workload/text.h"

namespace dms {
namespace lint {

namespace {

/** Location of op @p op: op coordinate plus text line when known. */
DiagLocation
opLocation(const AnalysisInput &input, OpId op)
{
    DiagLocation loc;
    loc.op = op;
    if (input.loopText != nullptr)
        loc.line = findNthKeyLine(*input.loopText, "op", op);
    return loc;
}

void
loopParse(const Check &self, const AnalysisInput &input,
          DiagnosticSink &sink)
{
    if (input.loopText == nullptr)
        return;
    const LatencyModel lat =
        input.latency != nullptr
            ? *input.latency
            : (input.machine != nullptr
                   ? input.machine->latency()
                   : LatencyModel());
    Loop loop;
    std::string error;
    if (loopFromText(*input.loopText, loop, error, lat))
        return;
    DiagLocation loc;
    std::string message;
    loc.line = splitErrorLine(error, message);
    sink.report(self.id, Severity::Error, self.artifact, loc, message);
}

void
storeNoValue(const Check &self, const AnalysisInput &input,
             DiagnosticSink &sink)
{
    if (input.loop == nullptr)
        return;
    const Ddg &ddg = input.loop->ddg;
    for (OpId op : ddg.liveOps()) {
        if (ddg.op(op).opc != Opcode::Store)
            continue;
        if (!ddg.flowInputs(op).empty())
            continue;
        sink.report(self.id, Severity::Error, self.artifact,
                    opLocation(input, op),
                    "store has no flow edge feeding the value "
                    "to write");
    }
}

void
deadOp(const Check &self, const AnalysisInput &input,
       DiagnosticSink &sink)
{
    if (input.loop == nullptr)
        return;
    const Ddg &ddg = input.loop->ddg;
    for (OpId op : ddg.liveOps()) {
        const Opcode opc = ddg.op(op).opc;
        if (!producesValue(opc))
            continue;
        if (ddg.flowFanout(op) > 0)
            continue;
        sink.report(
            self.id, Severity::Warning, self.artifact,
            opLocation(input, op),
            strfmt("result of %s is never used (no flow "
                   "out-edge); the op is dead work every "
                   "iteration",
                   opcodeName(opc)));
    }
}

void
danglingOperand(const Check &self, const AnalysisInput &input,
                DiagnosticSink &sink)
{
    if (input.loop == nullptr)
        return;
    const Ddg &ddg = input.loop->ddg;
    for (OpId op : ddg.liveOps()) {
        const Opcode opc = ddg.op(op).opc;
        // Stores are loop.store-no-value's concern.
        if (opcodeArity(opc) < 1 || opc == Opcode::Store)
            continue;
        if (!ddg.flowInputs(op).empty())
            continue;
        sink.report(
            self.id, Severity::Note, self.artifact,
            opLocation(input, op),
            strfmt("%s receives no flow edge on any operand "
                   "slot; all operands are assumed "
                   "loop-invariant",
                   opcodeName(opc)));
    }
}

void
noncanonicalText(const Check &self, const AnalysisInput &input,
                 DiagnosticSink &sink)
{
    if (input.loopText == nullptr || input.loop == nullptr)
        return;
    if (*input.loopText == loopToText(*input.loop))
        return;
    sink.report(self.id, Severity::Note, self.artifact, DiagLocation(),
                "text differs from the canonical loopToText "
                "form; the serve cache keys on canonical text, "
                "so equivalent spellings compile separately");
}

constexpr Check kTable[] = {
    {"loop.dangling-operand",
     "operations taking operands receive at least one flow edge",
     ArtifactKind::Loop, danglingOperand},
    {"loop.dead-op",
     "every produced value has a consumer",
     ArtifactKind::Loop, deadOp},
    {"loop.noncanonical-text",
     "loop text is in the canonical loopToText form",
     ArtifactKind::Loop, noncanonicalText},
    {"loop.parse",
     "loop description parses cleanly",
     ArtifactKind::Loop, loopParse},
    {"loop.store-no-value",
     "every store is fed a value by a flow edge",
     ArtifactKind::Loop, storeNoValue},
};

} // namespace

const CheckTable kLoopChecks = {std::begin(kTable),
                                std::end(kTable)};

} // namespace lint
} // namespace dms
