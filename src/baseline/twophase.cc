#include "baseline/twophase.h"

#include <algorithm>

#include "core/chain.h"
#include "ir/verify.h"
#include "support/diag.h"

namespace dms {

namespace {

/** Greedy cluster choice for one op. */
ClusterId
bestCluster(const Ddg &ddg, const MachineModel &machine, OpId op,
            const std::vector<ClusterId> &assign,
            const std::vector<std::vector<int>> &load)
{
    const int nc = machine.numClusters();
    FuClass cls = fuClassOf(ddg.op(op).opc);

    ClusterId best = 0;
    long best_cost = -1;
    for (ClusterId c = 0; c < nc; ++c) {
        long cost = 0;
        auto neighbor_cost = [&](OpId nb) {
            if (nb == op)
                return;
            ClusterId cn = assign[static_cast<size_t>(nb)];
            if (cn == kInvalidCluster)
                return;
            int d = machine.distance(c, cn);
            cost += d <= 1 ? d * 4L : 8L * d + 16;
        };
        for (EdgeId e : ddg.op(op).ins) {
            if (ddg.edgeActive(e) &&
                ddg.edge(e).kind == DepKind::Flow) {
                neighbor_cost(ddg.edge(e).src);
            }
        }
        for (EdgeId e : ddg.op(op).outs) {
            if (ddg.edgeActive(e) &&
                ddg.edge(e).kind == DepKind::Flow) {
                neighbor_cost(ddg.edge(e).dst);
            }
        }
        // Load balance: ops of the same class stacked in one
        // cluster raise its local ResMII directly.
        cost += 3L * load[static_cast<size_t>(c)]
                       [static_cast<int>(cls)];
        if (best_cost < 0 || cost < best_cost) {
            best_cost = cost;
            best = c;
        }
    }
    return best;
}

} // namespace

TwoPhaseOutcome
scheduleTwoPhase(const Ddg &ddg, const MachineModel &machine,
                 const SchedParams &params)
{
    DMS_ASSERT(machine.clustered(), "two-phase targets clustered "
                                    "machines");
    TwoPhaseOutcome out;
    out.ddg = std::make_unique<Ddg>(ddg);
    Ddg &work = *out.ddg;

    // Phase 1a: greedy partition in dependence order.
    out.assignment.assign(static_cast<size_t>(work.numOps()),
                          kInvalidCluster);
    std::vector<std::vector<int>> load(
        static_cast<size_t>(machine.numClusters()),
        std::vector<int>(kNumFuClasses, 0));
    for (OpId op : topoOrderZeroDistance(work)) {
        ClusterId c =
            bestCluster(work, machine, op, out.assignment, load);
        out.assignment[static_cast<size_t>(op)] = c;
        ++load[static_cast<size_t>(c)]
              [static_cast<int>(fuClassOf(work.op(op).opc))];
    }

    // Phase 1b: bridge every far edge with moves on the shortest
    // route (ring: ties toward direction +1).
    ChainRegistry chains;
    const int move_lat = machine.latencyOf(Opcode::Move);
    const int n_edges = work.numEdges(); // chains append edges
    std::vector<ClusterId> path;
    for (EdgeId e = 0; e < n_edges; ++e) {
        if (!work.edgeActive(e) ||
            work.edge(e).kind != DepKind::Flow) {
            continue;
        }
        ClusterId cs =
            out.assignment[static_cast<size_t>(work.edge(e).src)];
        ClusterId cd =
            out.assignment[static_cast<size_t>(work.edge(e).dst)];
        if (machine.directlyConnected(cs, cd))
            continue;
        int route = machine.routeLength(cs, cd, 0) <=
                            machine.routeLength(cs, cd, 1)
                        ? 0
                        : 1;
        machine.routeBetween(cs, cd, route, path);
        int cid = chains.create(work, e, path, move_lat);
        const Chain &ch = chains.chain(cid);
        out.assignment.resize(static_cast<size_t>(work.numOps()),
                              kInvalidCluster);
        for (size_t i = 0; i < ch.moves.size(); ++i) {
            out.assignment[static_cast<size_t>(ch.moves[i])] =
                ch.clusters[i];
        }
    }

    // Phase 2: modulo scheduling with the assignment pinned.
    out.sched = scheduleImsFixed(work, machine, out.assignment,
                                 params);
    return out;
}

} // namespace dms
