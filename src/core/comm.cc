#include "core/comm.h"

#include <algorithm>
#include <numeric>

namespace dms {

namespace {

/** Visit scheduled flow neighbours of op over active flow edges. */
template <typename Fn>
void
forEachScheduledFlowNeighbor(const Ddg &ddg, const PartialSchedule &ps,
                             OpId op, Fn &&fn)
{
    for (EdgeId e : ddg.op(op).ins) {
        if (!ddg.edgeActive(e) || ddg.edge(e).kind != DepKind::Flow)
            continue;
        OpId src = ddg.edge(e).src;
        if (src != op && ps.isScheduled(src))
            fn(src);
    }
    for (EdgeId e : ddg.op(op).outs) {
        if (!ddg.edgeActive(e) || ddg.edge(e).kind != DepKind::Flow)
            continue;
        OpId dst = ddg.edge(e).dst;
        if (dst != op && ps.isScheduled(dst))
            fn(dst);
    }
}

} // namespace

bool
commOkAt(const Ddg &ddg, const PartialSchedule &ps,
         const MachineModel &machine, OpId op, ClusterId cluster)
{
    bool ok = true;
    forEachScheduledFlowNeighbor(ddg, ps, op, [&](OpId nb) {
        if (!machine.directlyConnected(cluster, ps.clusterOf(nb)))
            ok = false;
    });
    return ok;
}

bool
succsOkAt(const Ddg &ddg, const PartialSchedule &ps,
          const MachineModel &machine, OpId op, ClusterId cluster)
{
    for (EdgeId e : ddg.op(op).outs) {
        if (!ddg.edgeActive(e) || ddg.edge(e).kind != DepKind::Flow)
            continue;
        OpId dst = ddg.edge(e).dst;
        if (dst == op || !ps.isScheduled(dst))
            continue;
        if (!machine.directlyConnected(cluster, ps.clusterOf(dst)))
            return false;
    }
    return true;
}

void
farPredecessorEdges(const Ddg &ddg, const PartialSchedule &ps,
                    const MachineModel &machine, OpId op,
                    ClusterId cluster, std::vector<EdgeId> &out)
{
    out.clear();
    for (EdgeId e : ddg.op(op).ins) {
        if (!ddg.edgeActive(e) || ddg.edge(e).kind != DepKind::Flow)
            continue;
        OpId src = ddg.edge(e).src;
        if (src == op || !ps.isScheduled(src))
            continue;
        if (!machine.directlyConnected(cluster, ps.clusterOf(src)))
            out.push_back(e);
    }
}

void
commConflictPeers(const Ddg &ddg, const PartialSchedule &ps,
                  const MachineModel &machine, OpId op,
                  std::vector<OpId> &out)
{
    ClusterId mine = ps.clusterOf(op);
    out.clear();
    forEachScheduledFlowNeighbor(ddg, ps, op, [&](OpId nb) {
        if (!machine.directlyConnected(mine, ps.clusterOf(nb)) &&
            std::find(out.begin(), out.end(), nb) == out.end()) {
            out.push_back(nb);
        }
    });
}

void
clustersByAffinity(const Ddg &ddg, const PartialSchedule &ps,
                   const MachineModel &machine, OpId op, int rotate,
                   AffinityScratch &scratch,
                   std::vector<ClusterId> &out)
{
    const int n = machine.numClusters();
    // Communication affinity: network distance to scheduled flow
    // neighbours. Load term: occupied slots of the op's own FU
    // class, so ops without placed neighbours (typically loads)
    // spread across the clusters instead of clumping in cluster 0 and
    // balanced clusters keep the II at ResMII.
    FuClass cls = fuClassOf(ddg.op(op).opc);
    std::vector<long> &cost = scratch.cost;
    cost.assign(static_cast<size_t>(n), 0);

    forEachScheduledFlowNeighbor(ddg, ps, op, [&](OpId nb) {
        ClusterId cn = ps.clusterOf(nb);
        for (ClusterId c = 0; c < n; ++c) {
            cost[static_cast<size_t>(c)] +=
                3L * machine.distance(c, cn);
        }
    });

    const int rows = ps.ii() * std::max(1,
        machine.fusPerCluster(cls));
    for (ClusterId c = 0; c < n; ++c) {
        int occupied = machine.fusPerCluster(cls) > 0
            ? rows - ps.reservations().freeSlotCount(c, cls)
            : 0;
        cost[static_cast<size_t>(c)] += occupied;
    }
    out.resize(static_cast<size_t>(n));
    std::iota(out.begin(), out.end(), 0);
    // Restart variants rotate the tie-break so a failed II attempt
    // can explore a different embedding of the body in the ring.
    // Stable insertion sort: rings are tiny (<= maxClusters) and
    // std::stable_sort's temporary buffer would be the last
    // allocation left in the placement loop.
    auto less = [&](ClusterId a, ClusterId b) {
        long ca = cost[static_cast<size_t>(a)];
        long cb = cost[static_cast<size_t>(b)];
        if (ca != cb)
            return ca < cb;
        return (a + rotate) % n < (b + rotate) % n;
    };
    for (int i = 1; i < n; ++i) {
        ClusterId key = out[static_cast<size_t>(i)];
        int j = i - 1;
        while (j >= 0 && less(key, out[static_cast<size_t>(j)])) {
            out[static_cast<size_t>(j + 1)] =
                out[static_cast<size_t>(j)];
            --j;
        }
        out[static_cast<size_t>(j + 1)] = key;
    }
}

} // namespace dms
