#include "ir/ddg.h"

#include <algorithm>
#include <utility>

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

Ddg::Ddg(const Ddg &other)
{
    resetTo(other);
}

Ddg &
Ddg::operator=(const Ddg &other)
{
    if (this != &other)
        resetTo(other);
    return *this;
}

Ddg::Ddg(Ddg &&other) noexcept
    : ops_(std::move(other.ops_)),
      num_ops_(std::exchange(other.num_ops_, 0)),
      edges_(std::move(other.edges_)),
      live_ops_(std::exchange(other.live_ops_, 0)),
      unroll_factor_(std::exchange(other.unroll_factor_, 1))
{
}

Ddg &
Ddg::operator=(Ddg &&other) noexcept
{
    if (this == &other)
        return *this;
    ops_ = std::move(other.ops_);
    num_ops_ = std::exchange(other.num_ops_, 0);
    edges_ = std::move(other.edges_);
    live_ops_ = std::exchange(other.live_ops_, 0);
    unroll_factor_ = std::exchange(other.unroll_factor_, 1);
    return *this;
}

OpId
Ddg::addOp(Opcode opc, OpOrigin origin)
{
    if (static_cast<size_t>(num_ops_) == ops_.size())
        ops_.emplace_back();
    // A pooled slot keeps its adjacency buffers, emptied; every
    // other field starts from its default.
    Operation &slot = ops_[static_cast<size_t>(num_ops_)];
    Operation o;
    o.ins = std::move(slot.ins);
    o.outs = std::move(slot.outs);
    o.ins.clear();
    o.outs.clear();
    o.opc = opc;
    o.origin = origin;
    const OpId id = num_ops_++;
    if (origin == OpOrigin::Original)
        o.origId = id;
    slot = std::move(o);
    ++live_ops_;
    return id;
}

void
Ddg::resetTo(const Ddg &original)
{
    DMS_ASSERT(this != &original, "resetTo self");
    // Element-wise copy-assignment reuses each destination op's
    // ins/outs buffers, which is what makes repeated attempts
    // allocation-free in steady state; slots past the copy stay
    // pooled.
    const size_t n = static_cast<size_t>(original.num_ops_);
    if (ops_.size() < n)
        ops_.resize(n);
    std::copy(original.ops_.begin(), original.ops_.begin() + n,
              ops_.begin());
    num_ops_ = original.num_ops_;
    edges_ = original.edges_;
    live_ops_ = original.live_ops_;
    unroll_factor_ = original.unroll_factor_;
}

void
Ddg::clear()
{
    num_ops_ = 0;
    edges_.clear();
    live_ops_ = 0;
    unroll_factor_ = 1;
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
