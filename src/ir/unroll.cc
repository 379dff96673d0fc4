#include "ir/unroll.h"

#include "support/diag.h"

namespace dms {

void
unrollDdg(const Ddg &ddg, int factor, Ddg &out)
{
    DMS_ASSERT(factor >= 1, "bad unroll factor %d", factor);
    DMS_ASSERT(ddg.unrollFactor() == 1, "re-unrolling a body");
    if (factor == 1) {
        out.resetTo(ddg);
        return;
    }

    out.clear();
    out.setUnrollFactor(factor);

    // New id of copy 0 of each live original op; copy j follows it
    // at first + j. Dead originals keep kInvalidOp.
    std::vector<OpId> first(static_cast<size_t>(ddg.numOps()),
                            kInvalidOp);

    for (OpId id = 0; id < ddg.numOps(); ++id) {
        if (!ddg.opLive(id))
            continue;
        const Operation &o = ddg.op(id);
        DMS_ASSERT(o.origin == OpOrigin::Original,
                   "unrolling a transformed body (op %d)", id);
        first[static_cast<size_t>(id)] = out.numOps();
        for (int j = 0; j < factor; ++j) {
            OpId nid = out.addOp(o.opc, o.origin);
            Operation &n = out.op(nid);
            n.origId = o.origId;
            n.iterOffset = j;
            n.memStream = o.memStream;
            n.memOffset = o.memOffset;
            n.literal = o.literal;
            // Each copy has exactly the original's degrees.
            n.ins.reserve(o.ins.size());
            n.outs.reserve(o.outs.size());
        }
    }

    for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
        if (!ddg.edgeLive(e))
            continue;
        const Edge &ed = ddg.edge(e);
        DMS_ASSERT(!ed.replaced, "unrolling a body with chains");
        const OpId src = first[static_cast<size_t>(ed.src)];
        const OpId dst = first[static_cast<size_t>(ed.dst)];
        for (int j = 0; j < factor; ++j) {
            // Consumer copy j consumes from producer copy j', where
            // j' = (j - d) mod f, carried (d - j + j') / f new
            // iterations back.
            int jp = ((j - ed.distance) % factor + factor) % factor;
            int ndist = (ed.distance - j + jp) / factor;
            DMS_ASSERT(ndist >= 0, "negative unrolled distance");
            out.addEdge(src + jp, dst + j, ed.kind, ndist, ed.latency,
                        ed.operandIndex);
        }
    }
}

} // namespace dms
