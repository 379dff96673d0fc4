#include "ir/prepass.h"

#include <algorithm>

#include "ir/scc.h"
#include "support/diag.h"

namespace dms {

PrepassStats
singleUsePrepass(Ddg &ddg, int copy_latency, int max_fanout)
{
    DMS_ASSERT(max_fanout >= 2, "max fan-out must be >= 2");
    PrepassStats stats;

    // SCC membership: consumers on the producer's recurrence cycle
    // must stay directly attached, or the copy latency would
    // lengthen the cycle and raise RecMII for every machine. Only
    // the sort below reads it, so it is computed at the first
    // rewrite — before any mutation, so on the input graph — and
    // a body that needs no copies skips the SCC pass.
    std::vector<int> scc_of;
    auto on_producer_cycle = [&](OpId producer, OpId consumer) {
        if (producer == consumer)
            return true; // self-loop recurrence
        int s = scc_of[static_cast<size_t>(producer)];
        return s >= 0 &&
               s == scc_of[static_cast<size_t>(consumer)];
    };

    // Snapshot: ops added during the rewrite (the copies) already
    // satisfy the bound and must not be revisited.
    const int orig_ops = ddg.numOps();

    std::vector<EdgeId> uses;
    for (OpId id = 0; id < orig_ops; ++id) {
        if (!ddg.opLive(id))
            continue;

        // Collect live flow uses of this value.
        uses.clear();
        for (EdgeId e : ddg.op(id).outs) {
            if (ddg.edgeLive(e) && ddg.edge(e).kind == DepKind::Flow)
                uses.push_back(e);
        }
        int k = static_cast<int>(uses.size());
        if (k <= max_fanout)
            continue;

        ++stats.opsRewritten;
        if (scc_of.empty()) {
            scc_of.assign(static_cast<size_t>(orig_ops), -1);
            int next = 0;
            forEachScc(ddg, [&](const OpId *members, size_t n) {
                if (n < 2)
                    return;
                for (size_t i = 0; i < n; ++i)
                    scc_of[static_cast<size_t>(members[i])] = next;
                ++next;
            });
        }

        // Recurrence consumers first (cycle length is sacred), then
        // tightest distance; ties broken by edge id for
        // determinism.
        std::sort(uses.begin(), uses.end(),
                  [&](EdgeId a, EdgeId b) {
                      bool ca = on_producer_cycle(id,
                                                  ddg.edge(a).dst);
                      bool cb = on_producer_cycle(id,
                                                  ddg.edge(b).dst);
                      if (ca != cb)
                          return ca;
                      int da = ddg.edge(a).distance;
                      int db = ddg.edge(b).distance;
                      return da != db ? da < db : a < b;
                  });

        // Build: u -> {use0, .., use(m-2), cp}; cp inherits the
        // remaining uses, recursively satisfying the bound. The
        // producer keeps max_fanout - 1 real uses plus the copy.
        OpId cur = id;
        size_t next_use = 0;
        size_t remaining = uses.size();
        while (remaining > static_cast<size_t>(max_fanout)) {
            // Keep (max_fanout - 1) uses on cur, spill the rest.
            size_t keep = static_cast<size_t>(max_fanout) - 1;
            for (size_t i = 0; i < keep; ++i) {
                EdgeId e = uses[next_use + i];
                if (cur != id) {
                    // Re-target the use to read from the copy.
                    const Edge ed = ddg.edge(e);
                    ddg.removeEdge(e);
                    ddg.addEdge(cur, ed.dst, DepKind::Flow,
                                ed.distance, copy_latency,
                                ed.operandIndex);
                }
            }
            next_use += keep;
            remaining -= keep;

            OpId cp = ddg.addOp(Opcode::Copy, OpOrigin::CopyOp);
            ddg.op(cp).origId = ddg.op(id).origId;
            ddg.op(cp).iterOffset = ddg.op(id).iterOffset;
            int lat = cur == id ? ddg.edge(uses[0]).latency
                                : copy_latency;
            ddg.addEdge(cur, cp, DepKind::Flow, 0, lat, 0);
            ++stats.copiesInserted;
            cur = cp;
        }
        // Attach the final <= max_fanout uses to the last copy.
        for (size_t i = next_use; i < uses.size(); ++i) {
            EdgeId e = uses[i];
            const Edge ed = ddg.edge(e);
            ddg.removeEdge(e);
            ddg.addEdge(cur, ed.dst, DepKind::Flow, ed.distance,
                        copy_latency, ed.operandIndex);
        }
    }

    return stats;
}

} // namespace dms
