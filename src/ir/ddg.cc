#include "ir/ddg.h"

#include <algorithm>

#include "support/diag.h"

namespace dms {

const char *
depKindName(DepKind kind)
{
    switch (kind) {
      case DepKind::Flow: return "flow";
      case DepKind::Anti: return "anti";
      case DepKind::Output: return "output";
      case DepKind::Memory: return "memory";
      default: break;
    }
    panic("bad dep kind %d", static_cast<int>(kind));
}

OpId
Ddg::addOp(Opcode opc, OpOrigin origin)
{
    Operation o;
    o.opc = opc;
    o.origin = origin;
    ops_.push_back(std::move(o));
    ++live_ops_;
    OpId id = static_cast<OpId>(ops_.size()) - 1;
    if (origin == OpOrigin::Original)
        ops_.back().origId = id;
    return id;
}

void
Ddg::resetTo(const Ddg &original)
{
    DMS_ASSERT(this != &original, "resetTo self");
    // Vector copy-assignment reuses the destination buffers when
    // capacity allows — including the per-operation ins/outs
    // vectors of the common prefix — which is what makes repeated
    // attempts allocation-free in steady state.
    ops_ = original.ops_;
    edges_ = original.edges_;
    live_ops_ = original.live_ops_;
    unroll_factor_ = original.unroll_factor_;
}

EdgeId
Ddg::addEdge(OpId src, OpId dst, DepKind kind, int distance,
             int latency, int operand_index)
{
    DMS_ASSERT(opLive(src) && opLive(dst),
               "edge between dead ops %d -> %d", src, dst);
    DMS_ASSERT(distance >= 0, "negative distance %d", distance);
    DMS_ASSERT(latency >= 0, "negative latency %d", latency);
    if (kind == DepKind::Flow) {
        DMS_ASSERT(producesValue(op(src).opc),
                   "flow edge from non-value op %s",
                   opLabel(src).c_str());
        DMS_ASSERT(operand_index == 0 || operand_index == 1,
                   "flow edge needs an operand slot (got %d)",
                   operand_index);
    } else {
        DMS_ASSERT(operand_index < 0,
                   "operand index on non-flow edge");
    }

    Edge e;
    e.src = src;
    e.dst = dst;
    e.kind = kind;
    e.distance = distance;
    e.latency = latency;
    e.operandIndex = operand_index;
    edges_.push_back(e);
    EdgeId id = static_cast<EdgeId>(edges_.size()) - 1;
    ops_[static_cast<size_t>(src)].outs.push_back(id);
    ops_[static_cast<size_t>(dst)].ins.push_back(id);
    return id;
}

void
Ddg::removeEdge(EdgeId eid)
{
    Edge &e = edge(eid);
    DMS_ASSERT(!e.dead, "removing dead edge %d", eid);
    auto unlink = [eid](std::vector<EdgeId> &v) {
        auto it = std::find(v.begin(), v.end(), eid);
        DMS_ASSERT(it != v.end(), "edge %d missing from adjacency",
                   eid);
        v.erase(it);
    };
    unlink(ops_[static_cast<size_t>(e.src)].outs);
    unlink(ops_[static_cast<size_t>(e.dst)].ins);
    e.dead = true;
    e.replaced = false;
}

void
Ddg::removeOp(OpId id)
{
    Operation &o = op(id);
    DMS_ASSERT(!o.dead, "removing dead op %d", id);
    DMS_ASSERT(o.ins.empty() && o.outs.empty(),
               "removing op %s with live edges", opLabel(id).c_str());
    o.dead = true;
    --live_ops_;
}

void
Ddg::markReplaced(EdgeId eid)
{
    Edge &e = edge(eid);
    DMS_ASSERT(!e.dead && !e.replaced, "bad replace of edge %d", eid);
    DMS_ASSERT(e.kind == DepKind::Flow, "replacing non-flow edge");
    e.replaced = true;
}

void
Ddg::unmarkReplaced(EdgeId eid)
{
    Edge &e = edge(eid);
    DMS_ASSERT(!e.dead && e.replaced, "bad unreplace of edge %d", eid);
    e.replaced = false;
}

std::vector<OpId>
Ddg::liveOps() const
{
    std::vector<OpId> out;
    out.reserve(static_cast<size_t>(live_ops_));
    for (OpId id = 0; id < numOps(); ++id) {
        if (!ops_[static_cast<size_t>(id)].dead)
            out.push_back(id);
    }
    return out;
}

std::vector<int>
Ddg::opCountByClass() const
{
    std::vector<int> counts(kNumFuClasses, 0);
    for (OpId id = 0; id < numOps(); ++id) {
        const Operation &o = ops_[static_cast<size_t>(id)];
        if (!o.dead)
            ++counts[static_cast<int>(fuClassOf(o.opc))];
    }
    return counts;
}

int
Ddg::usefulOpCount() const
{
    int n = 0;
    for (OpId id = 0; id < numOps(); ++id) {
        const Operation &o = ops_[static_cast<size_t>(id)];
        if (!o.dead && isUseful(o.opc))
            ++n;
    }
    return n;
}

int
Ddg::flowFanout(OpId id) const
{
    int n = 0;
    for (EdgeId e : op(id).outs) {
        if (edgeLive(e) && edge(e).kind == DepKind::Flow)
            ++n;
    }
    return n;
}

std::vector<EdgeId>
Ddg::flowInputs(OpId id) const
{
    std::vector<EdgeId> out;
    for (EdgeId e : op(id).ins) {
        // Active only: a replaced edge's value arrives through its
        // chain, whose final edge feeds the same operand slot.
        if (edgeActive(e) && edge(e).kind == DepKind::Flow &&
            edge(e).operandIndex >= 0) {
            out.push_back(e);
        }
    }
    return out;
}

std::string
Ddg::opLabel(OpId id) const
{
    return strfmt("op%d:%s", id, opcodeName(op(id).opc));
}

} // namespace dms
