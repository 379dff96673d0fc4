/**
 * @file
 * Emitted-kernel lint. The kernel's shape (row/stage/cluster of
 * every slot, stage count, one slot per scheduled op) is recomputed
 * from the raw schedule placements, and the queue annotations of
 * the emitted text are re-derived from the allocation's lifetimes
 * and searched for verbatim — so a kernel builder or emitter that
 * drifts from the schedule or the allocation is caught here.
 */

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "analysis/builtin_checks.h"
#include "support/diag.h"

namespace dms {
namespace lint {

namespace {

/** Mathematical mod: result in [0, m) for any sign of @p v. */
int
floorMod(int v, int m)
{
    const int r = v % m;
    return r < 0 ? r + m : r;
}

/** Mathematical floor division (toward -infinity). */
int
floorDiv(int v, int m)
{
    return (v - floorMod(v, m)) / m;
}

void
kernelShape(const Check &self, const AnalysisInput &input,
            DiagnosticSink &sink)
{
    if (input.kernel == nullptr || input.ddg == nullptr ||
        input.schedule == nullptr)
        return;
    const PipelinedLoop &kernel = *input.kernel;
    const Ddg &ddg = *input.ddg;
    const ScheduleView &view = *input.schedule;
    if (kernel.ii != view.ii ||
        static_cast<int>(kernel.rows.size()) != kernel.ii) {
        sink.report(
            self.id, Severity::Error, self.artifact, DiagLocation(),
            strfmt("kernel has II=%d and %zu rows but the "
                   "schedule's II is %d",
                   kernel.ii, kernel.rows.size(), view.ii));
        return;
    }

    int stages = 1;
    std::map<OpId, int> expected_row;
    for (OpId op : ddg.liveOps()) {
        if (!view.scheduled(op))
            continue;
        const int t = view.at(op).time;
        expected_row[op] = floorMod(t, view.ii);
        stages = std::max(stages, floorDiv(t, view.ii) + 1);
    }
    if (kernel.stageCount != stages) {
        sink.report(
            self.id, Severity::Error, self.artifact, DiagLocation(),
            strfmt("kernel records %d stages but the deepest "
                   "placement needs %d",
                   kernel.stageCount, stages));
    }

    std::map<OpId, int> seen;
    for (int r = 0; r < kernel.ii; ++r) {
        for (const KernelSlot &slot :
             kernel.rows[static_cast<size_t>(r)]) {
            DiagLocation loc;
            loc.op = slot.op;
            loc.cycle = r;
            if (slot.op < 0 || slot.op >= ddg.numOps() ||
                !ddg.opLive(slot.op) ||
                !view.scheduled(slot.op)) {
                sink.report(self.id, Severity::Error, self.artifact,
                            loc,
                            strfmt("row %d slots op %d, which "
                                   "is not a scheduled live "
                                   "operation",
                                   r, slot.op));
                continue;
            }
            seen[slot.op] += 1;
            const Placement &p = view.at(slot.op);
            const int want_row = floorMod(p.time, view.ii);
            const int want_stage = floorDiv(p.time, view.ii);
            if (r != want_row || slot.stage != want_stage ||
                slot.cluster != p.cluster ||
                slot.fuClass != fuClassOf(ddg.op(slot.op).opc)) {
                sink.report(
                    self.id, Severity::Error, self.artifact, loc,
                    strfmt("%s sits in row %d stage %d cluster "
                           "%d but cycle %d places it in row "
                           "%d stage %d cluster %d",
                           ddg.opLabel(slot.op).c_str(), r,
                           slot.stage, slot.cluster, p.time,
                           want_row, want_stage, p.cluster));
            }
        }
    }
    for (const auto &[op, row] : expected_row) {
        const auto it = seen.find(op);
        const int times = it == seen.end() ? 0 : it->second;
        if (times == 1)
            continue;
        DiagLocation loc;
        loc.op = op;
        loc.cycle = row;
        sink.report(
            self.id, Severity::Error, self.artifact, loc,
            strfmt("%s appears %d times in the kernel; every "
                   "scheduled op belongs in exactly one slot",
                   ddg.opLabel(op).c_str(), times));
    }
}

void
queueAnnotation(const Check &self, const AnalysisInput &input,
                DiagnosticSink &sink)
{
    if (input.kernel == nullptr || input.kernelText == nullptr ||
        input.queues == nullptr || input.ddg == nullptr)
        return;
    const Ddg &ddg = *input.ddg;
    const QueueAllocation &alloc = *input.queues;

    // Expected annotation per producing op, re-derived from
    // the lifetime list (allocation order, like the emitter
    // documents).
    std::vector<std::string> notes(
        static_cast<size_t>(ddg.numOps()));
    for (const Lifetime &lt : alloc.lifetimes) {
        if (lt.def < 0 || lt.def >= ddg.numOps())
            continue; // queue.file-recount's concern
        std::string &note =
            notes[static_cast<size_t>(lt.def)];
        if (lt.location == QueueLocation::Lrf) {
            note += strfmt(">c%d.q%d", lt.cluster,
                           lt.queueIndex);
        } else if (lt.link >= 0 &&
                   static_cast<size_t>(lt.link) <
                       alloc.links.size()) {
            const InterClusterLink &link =
                alloc.links[static_cast<size_t>(lt.link)];
            note += strfmt(">c%d-c%d.q%d", link.src, link.dst,
                           lt.queueIndex);
        }
    }

    for (const std::vector<KernelSlot> &row : input.kernel->rows) {
        for (const KernelSlot &slot : row) {
            if (slot.op < 0 || slot.op >= ddg.numOps())
                continue; // kernel.shape's concern
            const std::string token =
                strfmt("%s%d(s%d)%s",
                       opcodeName(ddg.op(slot.op).opc),
                       slot.op, slot.stage,
                       notes[static_cast<size_t>(slot.op)]
                           .c_str());
            if (input.kernelText->find(token) !=
                std::string::npos)
                continue;
            DiagLocation loc;
            loc.op = slot.op;
            loc.cluster = slot.cluster;
            sink.report(
                self.id, Severity::Error, self.artifact, loc,
                strfmt("emitted kernel lacks the token \"%s\" "
                       "expected for %s from the queue "
                       "allocation",
                       token.c_str(),
                       ddg.opLabel(slot.op).c_str()));
        }
    }
}

constexpr Check kTable[] = {
    {"kernel.queue-annotation",
     "emitted queue annotations match the allocation's lifetimes",
     ArtifactKind::Kernel, queueAnnotation},
    {"kernel.shape",
     "kernel rows/stages/slots match a recomputation from the schedule",
     ArtifactKind::Kernel, kernelShape},
};

} // namespace

const CheckTable kKernelChecks = {std::begin(kTable),
                                  std::end(kTable)};

} // namespace lint
} // namespace dms
