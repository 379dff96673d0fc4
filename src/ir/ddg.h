#ifndef DMS_IR_DDG_H
#define DMS_IR_DDG_H

/**
 * @file
 * Data dependence graph (DDG) of an innermost loop, the structure
 * every modulo scheduler in this repository operates on (paper
 * section 3: "a data dependence graph is used to represent the
 * dependencies between operations of the innermost loop").
 *
 * The graph is deliberately mutable: DMS inserts copy operations in
 * the single-use pre-pass and splices chains of move operations in
 * (and back out, on backtracking) while scheduling. Removed
 * operations and edges become tombstones so identifiers stay stable
 * across mutation.
 */

#include <string>
#include <vector>

#include "ir/opcode.h"
#include "support/diag.h"
#include "support/types.h"

namespace dms {

/** Kind of a dependence edge. */
enum class DepKind : std::uint8_t {
    Flow,    ///< true register dependence; carries a value
    Anti,    ///< write-after-read ordering
    Output,  ///< write-after-write ordering
    Memory,  ///< memory ordering (store/load aliasing)
};

const char *depKindName(DepKind kind);

/** Why an operation exists. */
enum class OpOrigin : std::uint8_t {
    Original,  ///< part of the source loop body
    CopyOp,    ///< inserted by the single-use lifetime pre-pass
    MoveOp,    ///< inserted by a DMS chain (strategy 2)
};

/**
 * One loop-body operation. Plain data; the graph owns the adjacency.
 */
struct Operation
{
    Opcode opc = Opcode::Add;
    OpOrigin origin = OpOrigin::Original;
    bool dead = false;

    /**
     * Identity of the op (or, for copies/moves, of the operation
     * that originally produced the forwarded value) in the loop this
     * DDG was derived from. Used by the simulator to compare stored
     * values against the reference interpreter across unrolling and
     * the copy pre-pass.
     */
    OpId origId = kInvalidOp;

    /** Which original iteration this op handles (unrolled bodies). */
    int iterOffset = 0;

    /** Memory stream id for Load/Store; -1 otherwise. */
    int memStream = -1;

    /** Constant index offset into the stream (models a[i+k]). */
    int memOffset = 0;

    /** Literal for Const operations. */
    std::int64_t literal = 0;

    /** In-edge ids (live and dead; check Edge::dead). */
    std::vector<EdgeId> ins;

    /** Out-edge ids. */
    std::vector<EdgeId> outs;
};

/** One dependence edge. */
struct Edge
{
    OpId src = kInvalidOp;
    OpId dst = kInvalidOp;
    DepKind kind = DepKind::Flow;

    /** Iteration distance (>= 0; loop-carried if > 0). */
    int distance = 0;

    /**
     * Dependence latency: the schedule must satisfy
     * time(dst) >= time(src) + latency - II * distance.
     */
    int latency = 0;

    /**
     * Operand slot of @c dst this edge feeds (0 or 1), or -1 for
     * edges that do not carry a value (Anti/Output/Memory). Chain
     * splicing preserves the slot so execution semantics survive.
     */
    int operandIndex = -1;

    bool dead = false;

    /**
     * True while a DMS chain of moves stands in for this edge. A
     * replaced edge imposes no constraints itself (the moves do) but
     * is remembered so backtracking can restore it.
     */
    bool replaced = false;
};

/**
 * Mutable data dependence graph of one innermost loop iteration.
 */
class Ddg
{
  public:
    Ddg() = default;

    /**
     * Copies take the ops in use only, never the pooled slots behind
     * them (see clear()); moves take everything and leave the source
     * empty.
     */
    Ddg(const Ddg &other);
    Ddg &operator=(const Ddg &other);
    Ddg(Ddg &&other) noexcept;
    Ddg &operator=(Ddg &&other) noexcept;

    /** @name Construction */
    /// @{

    /** Add an operation; returns its id. */
    OpId addOp(Opcode opc, OpOrigin origin = OpOrigin::Original);

    /**
     * Make this graph a copy of @p original while reusing the
     * existing allocations (including each operation's adjacency
     * buffers), so one scratch graph serves every (II, restart)
     * attempt of a scheduling run without churning the allocator.
     */
    void resetTo(const Ddg &original);

    /**
     * Drop every operation and edge but keep the buffers: the edge
     * array's capacity and every op slot, adjacency buffers
     * included, which addOp() then reuses in order. A graph rebuilt
     * compile after compile (the unrolled body) stops reallocating.
     */
    void clear();

    /**
     * Add a dependence edge.
     *
     * @param operand_index operand slot for Flow edges; -1 otherwise.
     */
    EdgeId addEdge(OpId src, OpId dst, DepKind kind, int distance,
                   int latency, int operand_index = -1);

    /// @}
    /** @name Mutation (pre-pass and chain splicing) */
    /// @{

    /** Remove an edge (tombstoned; unlinked from adjacency). */
    void removeEdge(EdgeId e);

    /** Remove an op; it must have no live edges left. */
    void removeOp(OpId id);

    /** Hide an edge behind a chain of moves. */
    void markReplaced(EdgeId e);

    /** Restore a hidden edge when its chain dissolves. */
    void unmarkReplaced(EdgeId e);

    /// @}
    /** @name Access */
    /// @{

    /** Total ids ever allocated, including tombstones. */
    int numOps() const { return num_ops_; }
    int numEdges() const { return static_cast<int>(edges_.size()); }

    /** Live (non-tombstoned) operation count. */
    int liveOpCount() const { return live_ops_; }

    /**
     * Op/edge accessors are defined inline (below the class): the
     * scheduler inner loop hits them millions of times per run and
     * the call overhead dominated the hot-path profile when they
     * lived in ddg.cc. The bounds asserts survive NDEBUG.
     */
    const Operation &op(OpId id) const;
    Operation &op(OpId id);
    const Edge &edge(EdgeId e) const;
    Edge &edge(EdgeId e);

    bool opLive(OpId id) const { return !op(id).dead; }
    bool edgeLive(EdgeId e) const { return !edge(e).dead; }

    /**
     * True if the edge currently constrains the schedule: live and
     * not replaced by a chain.
     */
    bool edgeActive(EdgeId e) const;

    /** All live op ids, ascending. */
    std::vector<OpId> liveOps() const;

    /** Live op count per functional-unit class. */
    std::vector<int> opCountByClass() const;

    /** Count of live useful (non copy/move) operations. */
    int usefulOpCount() const;

    /** Live flow out-degree (number of value uses). */
    int flowFanout(OpId id) const;

    /**
     * Active flow in-edges feeding operand slots, any order.
     * Replaced edges are excluded: their value flows through the
     * chain's final edge instead.
     */
    std::vector<EdgeId> flowInputs(OpId id) const;

    /// @}
    /** @name Loop metadata */
    /// @{

    /** Unroll factor this body was produced with (1 = not unrolled). */
    int unrollFactor() const { return unroll_factor_; }
    void setUnrollFactor(int f) { unroll_factor_ = f; }

    /// @}

    /** Human-readable label such as "op7:mul". */
    std::string opLabel(OpId id) const;

  private:
    /** Ops [0, num_ops_); slots past it are pooled for addOp(). */
    std::vector<Operation> ops_;
    int num_ops_ = 0;
    std::vector<Edge> edges_;
    int live_ops_ = 0;
    int unroll_factor_ = 1;
};

inline const Operation &
Ddg::op(OpId id) const
{
    DMS_ASSERT(id >= 0 && id < numOps(), "bad op id %d", id);
    return ops_[static_cast<size_t>(id)];
}

inline Operation &
Ddg::op(OpId id)
{
    DMS_ASSERT(id >= 0 && id < numOps(), "bad op id %d", id);
    return ops_[static_cast<size_t>(id)];
}

inline const Edge &
Ddg::edge(EdgeId e) const
{
    DMS_ASSERT(e >= 0 && e < numEdges(), "bad edge id %d", e);
    return edges_[static_cast<size_t>(e)];
}

inline Edge &
Ddg::edge(EdgeId e)
{
    DMS_ASSERT(e >= 0 && e < numEdges(), "bad edge id %d", e);
    return edges_[static_cast<size_t>(e)];
}

inline bool
Ddg::edgeActive(EdgeId e) const
{
    const Edge &ed = edge(e);
    return !ed.dead && !ed.replaced;
}

} // namespace dms

#endif // DMS_IR_DDG_H
