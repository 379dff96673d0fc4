#include "ir/scc.h"

#include <algorithm>

#include "support/diag.h"

namespace dms {

namespace {

/**
 * Iterative Tarjan SCC (explicit stack; DDGs can be deep). One
 * state per forEachScc call: the per-op table and both stacks are
 * sized once for the whole graph and shared by every DFS root.
 */
struct TarjanState
{
    struct Node
    {
        int index = -1;
        int lowlink = -1;
        bool onStack = false;
    };
    struct Frame
    {
        OpId v;
        const EdgeId *next; ///< v's out-edges not yet walked
        const EdgeId *end;
    };

    const Ddg &ddg;
    const std::function<void(const OpId *, size_t)> &emit;
    std::vector<Node> nodes;
    std::vector<OpId> stack;
    std::vector<Frame> frames;
    int next_index = 0;

    TarjanState(const Ddg &g,
                const std::function<void(const OpId *, size_t)> &fn)
        : ddg(g), emit(fn), nodes(static_cast<size_t>(g.numOps()))
    {
        stack.reserve(nodes.size());
        frames.reserve(nodes.size());
    }

    void
    visit(OpId v)
    {
        Node &n = nodes[static_cast<size_t>(v)];
        n.index = next_index;
        n.lowlink = next_index;
        n.onStack = true;
        ++next_index;
        stack.push_back(v);
        const std::vector<EdgeId> &outs = ddg.op(v).outs;
        frames.push_back({v, outs.data(), outs.data() + outs.size()});
    }

    void
    run(OpId root)
    {
        visit(root);
        while (!frames.empty()) {
            Frame &f = frames.back();
            bool descended = false;
            while (f.next != f.end) {
                const EdgeId e = *f.next++;
                if (!ddg.edgeActive(e))
                    continue;
                OpId w = ddg.edge(e).dst;
                const Node &wn = nodes[static_cast<size_t>(w)];
                if (wn.index < 0) {
                    visit(w); // invalidates f
                    descended = true;
                    break;
                } else if (wn.onStack) {
                    Node &vn = nodes[static_cast<size_t>(f.v)];
                    vn.lowlink = std::min(vn.lowlink, wn.index);
                }
            }
            if (descended)
                continue;

            // Finished v: pop frame, close SCC if root.
            OpId v = f.v;
            const Node &vn = nodes[static_cast<size_t>(v)];
            frames.pop_back();
            if (!frames.empty()) {
                Node &pn = nodes[static_cast<size_t>(frames.back().v)];
                pn.lowlink = std::min(pn.lowlink, vn.lowlink);
            }
            if (vn.lowlink == vn.index) {
                // Emit the SCC in place from the Tarjan stack: sort
                // its segment, hand it to the visitor, then pop.
                size_t base = stack.size();
                while (true) {
                    --base;
                    nodes[static_cast<size_t>(stack[base])].onStack =
                        false;
                    if (stack[base] == v)
                        break;
                }
                std::sort(stack.begin() +
                              static_cast<std::ptrdiff_t>(base),
                          stack.end());
                emit(stack.data() + base, stack.size() - base);
                stack.resize(base);
            }
        }
    }
};

} // namespace

void
forEachScc(const Ddg &ddg,
           const std::function<void(const OpId *, size_t)> &fn)
{
    TarjanState st(ddg, fn);
    for (OpId id = 0; id < ddg.numOps(); ++id) {
        if (ddg.opLive(id) &&
            st.nodes[static_cast<size_t>(id)].index < 0) {
            st.run(id);
        }
    }
}

bool
hasRecurrence(const Ddg &ddg)
{
    // A non-trivial SCC or a self-loop means a dependence cycle.
    for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
        if (ddg.edgeActive(e) && ddg.edge(e).src == ddg.edge(e).dst)
            return true;
    }
    bool cycle = false;
    forEachScc(ddg, [&](const OpId *, size_t n) { cycle |= n > 1; });
    return cycle;
}

} // namespace dms
