/**
 * @file
 * Modulo-schedule audit. Everything here is recomputed from the raw
 * placements in the ScheduleView — reservation rows are recounted
 * op by op, dependence slack is re-evaluated straight from the
 * formula, and the II lower bound is re-derived from live op counts
 * — so the audit cannot inherit a bug from the reservation table or
 * the scheduler that produced the placements.
 */

#include <algorithm>
#include <iterator>
#include <map>
#include <tuple>
#include <vector>

#include "analysis/builtin_checks.h"
#include "sched/priority.h"
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

bool
wantsScheduleAudit(const AnalysisInput &input)
{
    return input.machine != nullptr && input.ddg != nullptr &&
           input.schedule != nullptr;
}

void
unscheduledOp(const Check &self, const AnalysisInput &input,
              DiagnosticSink &sink)
{
    if (input.ddg == nullptr || input.schedule == nullptr)
        return;
    for (OpId op : input.ddg->liveOps()) {
        if (input.schedule->scheduled(op))
            continue;
        DiagLocation loc;
        loc.op = op;
        sink.report(self.id, Severity::Error, self.artifact, loc,
                    strfmt("live operation %s has no placement",
                           input.ddg->opLabel(op).c_str()));
    }
}

void
resourceOveruse(const Check &self, const AnalysisInput &input,
                DiagnosticSink &sink)
{
    if (!wantsScheduleAudit(input))
        return;
    const Ddg &ddg = *input.ddg;
    const ScheduleView &view = *input.schedule;
    const MachineModel &machine = *input.machine;
    if (view.ii < 1) {
        sink.report(self.id, Severity::Error, self.artifact,
                    DiagLocation(),
                    strfmt("initiation interval %d is not "
                           "positive",
                           view.ii));
        return;
    }
    // (cluster, class, row) -> ops issued there.
    std::map<std::tuple<int, int, int>, std::vector<OpId>> rows;
    for (OpId op : ddg.liveOps()) {
        if (!view.scheduled(op))
            continue;
        const Placement &p = view.at(op);
        const FuClass cls = fuClassOf(ddg.op(op).opc);
        const int row = floorMod(p.time, view.ii);
        rows[{p.cluster, static_cast<int>(cls), row}].push_back(
            op);
        const int limit = machine.fusPerCluster(cls);
        if (p.fuInstance < 0 || p.fuInstance >= limit) {
            DiagLocation loc;
            loc.op = op;
            loc.cycle = row;
            loc.cluster = p.cluster;
            sink.report(
                self.id, Severity::Error, self.artifact, loc,
                strfmt("%s uses %s unit %d but cluster %d has "
                       "%d",
                       ddg.opLabel(op).c_str(),
                       fuClassName(cls), p.fuInstance,
                       p.cluster, limit));
        }
    }
    for (const auto &[key, ops] : rows) {
        const auto [cluster, cls_int, row] = key;
        const FuClass cls = static_cast<FuClass>(cls_int);
        const int limit = machine.fusPerCluster(cls);
        DiagLocation loc;
        loc.cycle = row;
        loc.cluster = cluster;
        if (static_cast<int>(ops.size()) > limit) {
            sink.report(
                self.id, Severity::Error, self.artifact, loc,
                strfmt("%zu %s ops share modulo row %d of "
                       "cluster %d but it has only %d unit%s",
                       ops.size(), fuClassName(cls), row,
                       cluster, limit, limit == 1 ? "" : "s"));
        }
        // Distinct ops on the same physical instance collide
        // even when the row as a whole is not oversubscribed.
        std::map<int, OpId> byInstance;
        for (OpId op : ops) {
            const int inst = view.at(op).fuInstance;
            const auto [it, fresh] =
                byInstance.emplace(inst, op);
            if (fresh)
                continue;
            DiagLocation dup = loc;
            dup.op = op;
            sink.report(
                self.id, Severity::Error, self.artifact, dup,
                strfmt("%s and %s both occupy %s unit %d of "
                       "cluster %d in modulo row %d",
                       ddg.opLabel(it->second).c_str(),
                       ddg.opLabel(op).c_str(),
                       fuClassName(cls), inst, cluster, row));
        }
    }
}

void
depLatency(const Check &self, const AnalysisInput &input,
           DiagnosticSink &sink)
{
    if (input.ddg == nullptr || input.schedule == nullptr)
        return;
    const Ddg &ddg = *input.ddg;
    const ScheduleView &view = *input.schedule;
    for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
        if (!ddg.edgeActive(e))
            continue;
        const Edge &edge = ddg.edge(e);
        if (!view.scheduled(edge.src) ||
            !view.scheduled(edge.dst))
            continue;
        const int earliest = view.at(edge.src).time +
                             edge.latency -
                             view.ii * edge.distance;
        const int actual = view.at(edge.dst).time;
        if (actual >= earliest)
            continue;
        DiagLocation loc;
        loc.edge = e;
        loc.op = edge.dst;
        loc.cycle = actual;
        sink.report(
            self.id, Severity::Error, self.artifact, loc,
            strfmt("%s dependence %s -> %s violated: dst at "
                   "cycle %d, but src at %d with latency %d "
                   "and distance %d requires >= %d",
                   depKindName(edge.kind),
                   ddg.opLabel(edge.src).c_str(),
                   ddg.opLabel(edge.dst).c_str(), actual,
                   view.at(edge.src).time, edge.latency,
                   edge.distance, earliest));
    }
}

void
heightConsistency(const Check &self, const AnalysisInput &input,
                  DiagnosticSink &sink)
{
    if (input.ddg == nullptr || input.schedule == nullptr)
        return;
    const Ddg &ddg = *input.ddg;
    const int ii = input.schedule->ii;
    if (ii < 1)
        return; // sched.resource-overuse reports this
    // Independent relaxation, deliberately unlike the
    // production code in sched/priority.cc: ascending-id
    // Bellman-Ford sweeps with a sweep bound instead of
    // descending sweeps with a step budget, so a bug in
    // tryComputeHeights cannot echo here.
    std::vector<long> naive(
        static_cast<size_t>(ddg.numOps()), 0);
    long sweeps = static_cast<long>(ddg.numOps()) + 2;
    bool changed = true;
    while (changed && sweeps-- > 0) {
        changed = false;
        for (OpId v = 0; v < ddg.numOps(); ++v) {
            if (!ddg.opLive(v))
                continue;
            long best = 0;
            for (EdgeId e : ddg.op(v).outs) {
                if (!ddg.edgeActive(e))
                    continue;
                const Edge &edge = ddg.edge(e);
                const long through =
                    naive[static_cast<size_t>(edge.dst)] +
                    edge.latency -
                    static_cast<long>(ii) * edge.distance;
                best = std::max(best, through);
            }
            if (best != naive[static_cast<size_t>(v)]) {
                naive[static_cast<size_t>(v)] = best;
                changed = true;
            }
        }
    }
    if (changed) {
        // Still relaxing after numOps sweeps: a positive-weight
        // cycle, i.e. the II is below the recurrence bound.
        sink.report(
            self.id, Severity::Error, self.artifact, DiagLocation(),
            strfmt("height relaxation does not converge at II "
                   "%d: the schedule's II is below the "
                   "recurrence-imposed minimum",
                   ii));
        return;
    }
    Heights produced;
    if (!tryComputeHeights(ddg, ii, produced)) {
        sink.report(
            self.id, Severity::Error, self.artifact, DiagLocation(),
            strfmt("tryComputeHeights diverges at II %d but an "
                   "independent relaxation converges",
                   ii));
        return;
    }
    for (OpId v = 0; v < ddg.numOps(); ++v) {
        if (!ddg.opLive(v))
            continue;
        if (produced[static_cast<size_t>(v)] ==
            naive[static_cast<size_t>(v)])
            continue;
        DiagLocation loc;
        loc.op = v;
        sink.report(
            self.id, Severity::Error, self.artifact, loc,
            strfmt("height of %s at II %d is %lld but the "
                   "independent relaxation derives %ld",
                   ddg.opLabel(v).c_str(), ii,
                   static_cast<long long>(
                       produced[static_cast<size_t>(v)]),
                   naive[static_cast<size_t>(v)]));
    }
}

void
iiLowerBound(const Check &self, const AnalysisInput &input,
             DiagnosticSink &sink)
{
    if (!wantsScheduleAudit(input))
        return;
    const std::vector<int> counts =
        input.ddg->opCountByClass();
    int res_mii = 1;
    for (int c = 0; c < kNumFuClasses; ++c) {
        if (counts[static_cast<size_t>(c)] == 0)
            continue;
        const FuClass cls = static_cast<FuClass>(c);
        const int total = input.machine->totalFus(cls);
        if (total == 0) {
            sink.report(
                self.id, Severity::Error, self.artifact,
                DiagLocation(),
                strfmt("%d %s ops but the machine has no %s "
                       "units; no II can schedule them",
                       counts[static_cast<size_t>(c)],
                       fuClassName(cls), fuClassName(cls)));
            return;
        }
        const int need =
            (counts[static_cast<size_t>(c)] + total - 1) /
            total;
        res_mii = std::max(res_mii, need);
    }
    if (input.schedule->ii >= res_mii)
        return;
    sink.report(
        self.id, Severity::Error, self.artifact, DiagLocation(),
        strfmt("II=%d is below the resource lower bound %d "
               "recomputed from live op counts",
               input.schedule->ii, res_mii));
}

void
commHop(const Check &self, const AnalysisInput &input,
        DiagnosticSink &sink)
{
    if (!wantsScheduleAudit(input) || !input.machine->clustered())
        return;
    const Ddg &ddg = *input.ddg;
    const ScheduleView &view = *input.schedule;
    for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
        if (!ddg.edgeActive(e))
            continue;
        const Edge &edge = ddg.edge(e);
        if (edge.kind != DepKind::Flow)
            continue;
        if (!view.scheduled(edge.src) ||
            !view.scheduled(edge.dst))
            continue;
        const ClusterId a = view.at(edge.src).cluster;
        const ClusterId b = view.at(edge.dst).cluster;
        if (input.machine->directlyConnected(a, b))
            continue;
        DiagLocation loc;
        loc.edge = e;
        loc.op = edge.dst;
        loc.cluster = b;
        sink.report(
            self.id, Severity::Error, self.artifact, loc,
            strfmt("flow %s -> %s crosses from cluster %d to "
                   "%d, which are %d hops apart; values reach "
                   "only adjacent clusters (chains of moves "
                   "carry longer routes)",
                   ddg.opLabel(edge.src).c_str(),
                   ddg.opLabel(edge.dst).c_str(), a, b,
                   input.machine->distance(a, b)));
    }
}

void
moveShape(const Check &self, const AnalysisInput &input,
          DiagnosticSink &sink)
{
    if (!wantsScheduleAudit(input))
        return;
    const Ddg &ddg = *input.ddg;
    const ScheduleView &view = *input.schedule;
    for (OpId op : ddg.liveOps()) {
        if (ddg.op(op).origin != OpOrigin::MoveOp)
            continue;
        DiagLocation loc;
        loc.op = op;
        if (ddg.op(op).opc != Opcode::Move) {
            sink.report(
                self.id, Severity::Error, self.artifact, loc,
                strfmt("move-origin op has opcode %s",
                       opcodeName(ddg.op(op).opc)));
            continue;
        }
        const std::vector<EdgeId> ins = ddg.flowInputs(op);
        if (ins.size() != 1) {
            sink.report(
                self.id, Severity::Error, self.artifact, loc,
                strfmt("move has %zu flow inputs; a move "
                       "forwards exactly one value",
                       ins.size()));
            continue;
        }
        if (ddg.flowFanout(op) == 0) {
            sink.report(self.id, Severity::Error, self.artifact, loc,
                        "move forwards its value to nobody");
        }
        const OpId producer = ddg.edge(ins[0]).src;
        if (!view.scheduled(op) || !view.scheduled(producer))
            continue;
        const ClusterId from = view.at(producer).cluster;
        const ClusterId to = view.at(op).cluster;
        if (from != to &&
            input.machine->directlyConnected(from, to))
            continue;
        loc.cluster = to;
        sink.report(
            self.id, Severity::Error, self.artifact, loc,
            strfmt("move hop from cluster %d to %d is not one "
                   "link of the topology",
                   from, to));
    }
}

/**
 * BFS from @p src over active flow edges whose interior nodes
 * are all move operations, looking for @p dst.
 */
bool
reachesThroughMoves(const Ddg &ddg, OpId src, OpId dst)
{
    std::vector<char> seen(
        static_cast<size_t>(ddg.numOps()), 0);
    std::vector<OpId> frontier = {src};
    seen[static_cast<size_t>(src)] = 1;
    while (!frontier.empty()) {
        const OpId u = frontier.back();
        frontier.pop_back();
        for (EdgeId e : ddg.op(u).outs) {
            if (!ddg.edgeActive(e) ||
                ddg.edge(e).kind != DepKind::Flow)
                continue;
            const OpId v = ddg.edge(e).dst;
            if (v == dst)
                return true;
            if (seen[static_cast<size_t>(v)] ||
                ddg.op(v).origin != OpOrigin::MoveOp)
                continue;
            seen[static_cast<size_t>(v)] = 1;
            frontier.push_back(v);
        }
    }
    return false;
}

void
chainBroken(const Check &self, const AnalysisInput &input,
            DiagnosticSink &sink)
{
    if (input.ddg == nullptr || input.schedule == nullptr)
        return;
    const Ddg &ddg = *input.ddg;
    for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
        if (!ddg.edgeLive(e) || !ddg.edge(e).replaced)
            continue;
        const Edge &edge = ddg.edge(e);
        if (reachesThroughMoves(ddg, edge.src, edge.dst))
            continue;
        DiagLocation loc;
        loc.edge = e;
        loc.op = edge.src;
        sink.report(
            self.id, Severity::Error, self.artifact, loc,
            strfmt("edge %s -> %s is marked replaced but no "
                   "chain of moves carries the value",
                   ddg.opLabel(edge.src).c_str(),
                   ddg.opLabel(edge.dst).c_str()));
    }
}

constexpr Check kTable[] = {
    {"sched.chain-broken",
     "every replaced edge is carried by a live chain of moves",
     ArtifactKind::Schedule, chainBroken},
    {"sched.comm-hop",
     "cross-cluster flow edges span exactly one link of the topology",
     ArtifactKind::Schedule, commHop},
    {"sched.dep-latency",
     "every active dependence satisfies t(dst) >= t(src) + lat - II*dist",
     ArtifactKind::Schedule, depLatency},
    {"sched.height-consistency",
     "scheduling heights re-derived from first principles converge at the "
     "schedule's II and match the production table",
     ArtifactKind::Schedule, heightConsistency},
    {"sched.ii-lower-bound",
     "II is no smaller than the recomputed resource minimum",
     ArtifactKind::Schedule, iiLowerBound},
    {"sched.move-shape",
     "every move forwards exactly one value one hop",
     ArtifactKind::Schedule, moveShape},
    {"sched.resource-overuse",
     "modulo reservation rows recounted from raw placements fit the FU "
     "counts",
     ArtifactKind::Schedule, resourceOveruse},
    {"sched.unscheduled-op",
     "every live operation has a placement",
     ArtifactKind::Schedule, unscheduledOp},
};

} // namespace

const CheckTable kScheduleChecks = {std::begin(kTable),
                                    std::end(kTable)};

} // namespace lint
} // namespace dms
