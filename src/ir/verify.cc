#include "ir/verify.h"

#include <algorithm>

#include "support/diag.h"

namespace dms {

std::vector<std::string>
verifyDdg(const Ddg &ddg, const DdgVerifyOptions &opts)
{
    std::vector<std::string> problems;
    auto complain = [&](std::string s) {
        problems.push_back(std::move(s));
    };

    for (OpId id = 0; id < ddg.numOps(); ++id) {
        if (!ddg.opLive(id))
            continue;
        const Operation &o = ddg.op(id);

        for (EdgeId e : o.ins) {
            if (!ddg.edgeLive(e))
                complain(strfmt("op%d lists dead in-edge %d", id, e));
            else if (ddg.edge(e).dst != id)
                complain(strfmt("in-edge %d of op%d has dst %d",
                                e, id, ddg.edge(e).dst));
        }
        for (EdgeId e : o.outs) {
            if (!ddg.edgeLive(e))
                complain(strfmt("op%d lists dead out-edge %d", id, e));
            else if (ddg.edge(e).src != id)
                complain(strfmt("out-edge %d of op%d has src %d",
                                e, id, ddg.edge(e).src));
        }

        // Operand slots: each slot fed at most once, slots < arity.
        int arity = opcodeArity(o.opc);
        bool slot_used[2] = {false, false};
        for (EdgeId e : o.ins) {
            // Ddg::flowInputs(id), without building the vector.
            const Edge &in = ddg.edge(e);
            if (!ddg.edgeActive(e) || in.kind != DepKind::Flow ||
                in.operandIndex < 0)
                continue;
            int slot = in.operandIndex;
            if (slot < 0 || slot >= 2) {
                complain(strfmt("edge %d has bad operand slot %d",
                                e, slot));
                continue;
            }
            if (slot >= arity) {
                complain(strfmt("%s: operand slot %d >= arity %d",
                                ddg.opLabel(id).c_str(), slot, arity));
            }
            if (slot_used[slot]) {
                complain(strfmt("%s: operand slot %d fed twice",
                                ddg.opLabel(id).c_str(), slot));
            }
            slot_used[slot] = true;
        }

        if (opts.maxFlowFanout > 0 &&
            ddg.flowFanout(id) > opts.maxFlowFanout) {
            complain(strfmt("%s: flow fan-out %d exceeds limit %d",
                            ddg.opLabel(id).c_str(), ddg.flowFanout(id),
                            opts.maxFlowFanout));
        }
    }

    for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
        if (!ddg.edgeLive(e))
            continue;
        const Edge &ed = ddg.edge(e);
        if (!ddg.opLive(ed.src) || !ddg.opLive(ed.dst))
            complain(strfmt("edge %d touches dead op", e));
        if (ed.distance < 0)
            complain(strfmt("edge %d has negative distance", e));
        if (ed.replaced && ed.kind != DepKind::Flow)
            complain(strfmt("edge %d replaced but not flow", e));
    }

    // Zero-distance cycle detection via Kahn's algorithm on the
    // subgraph of active zero-distance edges.
    {
        std::vector<int> indeg(static_cast<size_t>(ddg.numOps()), 0);
        for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
            if (ddg.edgeActive(e) && ddg.edge(e).distance == 0)
                ++indeg[static_cast<size_t>(ddg.edge(e).dst)];
        }
        std::vector<OpId> queue;
        int live = 0;
        for (OpId id = 0; id < ddg.numOps(); ++id) {
            if (!ddg.opLive(id))
                continue;
            ++live;
            if (indeg[static_cast<size_t>(id)] == 0)
                queue.push_back(id);
        }
        int visited = 0;
        while (!queue.empty()) {
            OpId id = queue.back();
            queue.pop_back();
            ++visited;
            for (EdgeId e : ddg.op(id).outs) {
                if (!ddg.edgeActive(e) || ddg.edge(e).distance != 0)
                    continue;
                OpId dst = ddg.edge(e).dst;
                if (--indeg[static_cast<size_t>(dst)] == 0)
                    queue.push_back(dst);
            }
        }
        if (visited != live)
            complain("zero-distance dependence cycle present");
    }

    return problems;
}

void
checkDdg(const Ddg &ddg, const DdgVerifyOptions &opts)
{
    auto problems = verifyDdg(ddg, opts);
    if (!problems.empty())
        panic("invalid DDG: %s", problems.front().c_str());
}

std::vector<OpId>
topoOrderZeroDistance(const Ddg &ddg)
{
    std::vector<int> indeg(static_cast<size_t>(ddg.numOps()), 0);
    for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
        if (ddg.edgeActive(e) && ddg.edge(e).distance == 0)
            ++indeg[static_cast<size_t>(ddg.edge(e).dst)];
    }
    std::vector<OpId> order;
    std::vector<OpId> queue;
    for (OpId id = 0; id < ddg.numOps(); ++id) {
        if (ddg.opLive(id) && indeg[static_cast<size_t>(id)] == 0)
            queue.push_back(id);
    }
    while (!queue.empty()) {
        OpId id = queue.back();
        queue.pop_back();
        order.push_back(id);
        for (EdgeId e : ddg.op(id).outs) {
            if (!ddg.edgeActive(e) || ddg.edge(e).distance != 0)
                continue;
            OpId dst = ddg.edge(e).dst;
            if (--indeg[static_cast<size_t>(dst)] == 0)
                queue.push_back(dst);
        }
    }
    DMS_ASSERT(static_cast<int>(order.size()) == ddg.liveOpCount(),
               "zero-distance cycle in DDG");
    return order;
}

} // namespace dms
