#include "core/chain.h"

#include <algorithm>

#include "support/diag.h"

namespace dms {

int
ChainRegistry::create(Ddg &ddg, EdgeId edge,
                      const std::vector<ClusterId> &path,
                      int move_latency)
{
    DMS_ASSERT(!path.empty(), "chain needs at least one move");
    return create(ddg, edge, path.data(),
                  static_cast<int>(path.size()), move_latency);
}

int
ChainRegistry::create(Ddg &ddg, EdgeId edge, const ClusterId *path,
                      int path_len, int move_latency)
{
    DMS_ASSERT(path_len >= 1, "chain needs at least one move");
    const Edge orig = ddg.edge(edge);
    DMS_ASSERT(orig.kind == DepKind::Flow && !orig.replaced,
               "chaining a non-flow or already chained edge");

    Chain c;
    c.originalEdge = edge;
    c.src = orig.src;
    c.dst = orig.dst;
    c.clusters.assign(path, path + path_len);

    ddg.markReplaced(edge);

    OpId prev = orig.src;
    for (size_t i = 0; i < static_cast<size_t>(path_len); ++i) {
        OpId mv = ddg.addOp(Opcode::Move, OpOrigin::MoveOp);
        // Moves forward the producer's value; keep the ultimate
        // origin so simulator live-in values line up.
        ddg.op(mv).origId = ddg.op(orig.src).origId;
        ddg.op(mv).iterOffset = ddg.op(orig.src).iterOffset;
        int dist = i == 0 ? orig.distance : 0;
        int lat = i == 0 ? orig.latency : move_latency;
        EdgeId e = ddg.addEdge(prev, mv, DepKind::Flow, dist, lat, 0);
        c.moves.push_back(mv);
        c.edges.push_back(e);
        prev = mv;

        size_t need = static_cast<size_t>(mv) + 1;
        if (chain_of_move_.size() < need)
            chain_of_move_.resize(need, -1);
        chain_of_move_[static_cast<size_t>(mv)] =
            static_cast<int>(chains_.size());
    }
    EdgeId last = ddg.addEdge(prev, orig.dst, DepKind::Flow, 0,
                              move_latency, orig.operandIndex);
    c.edges.push_back(last);

    chains_.push_back(std::move(c));
    live_ids_.push_back(static_cast<int>(chains_.size()) - 1);
    return static_cast<int>(chains_.size()) - 1;
}

void
ChainRegistry::dissolve(int chain_id, Ddg &ddg, PartialSchedule &ps)
{
    Chain &c = chains_.at(static_cast<size_t>(chain_id));
    DMS_ASSERT(!c.dissolved, "double dissolve of chain %d", chain_id);

    for (OpId mv : c.moves) {
        if (ps.isScheduled(mv))
            ps.unschedule(mv);
    }
    for (EdgeId e : c.edges)
        ddg.removeEdge(e);
    for (OpId mv : c.moves) {
        ddg.removeOp(mv);
        chain_of_move_[static_cast<size_t>(mv)] = -1;
    }
    ddg.unmarkReplaced(c.originalEdge);
    c.dissolved = true;
    live_ids_.erase(std::lower_bound(live_ids_.begin(),
                                     live_ids_.end(), chain_id));
}

int
ChainRegistry::chainOfMove(OpId op) const
{
    if (op < 0 || static_cast<size_t>(op) >= chain_of_move_.size())
        return -1;
    return chain_of_move_[static_cast<size_t>(op)];
}

void
ChainRegistry::chainsTouching(OpId op, std::vector<int> &out) const
{
    out.clear();
    for (int id : live_ids_) {
        const Chain &c = chains_[static_cast<size_t>(id)];
        if (c.src == op || c.dst == op)
            out.push_back(id);
    }
}

const Chain &
ChainRegistry::chain(int id) const
{
    return chains_.at(static_cast<size_t>(id));
}

} // namespace dms
