#include "ir/scc.h"

#include <algorithm>

#include "support/diag.h"

namespace dms {

namespace {

/** Iterative Tarjan SCC (explicit stack; DDGs can be deep). */
struct TarjanState
{
    const Ddg &ddg;
    const std::function<void(const OpId *, size_t)> &emit;
    std::vector<int> index;
    std::vector<int> lowlink;
    std::vector<bool> on_stack;
    std::vector<OpId> stack;
    int next_index = 0;

    TarjanState(const Ddg &g,
                const std::function<void(const OpId *, size_t)> &fn)
        : ddg(g), emit(fn),
          index(static_cast<size_t>(g.numOps()), -1),
          lowlink(static_cast<size_t>(g.numOps()), -1),
          on_stack(static_cast<size_t>(g.numOps()), false)
    {}

    void
    run(OpId root)
    {
        struct Frame { OpId v; size_t edge_pos; };
        std::vector<Frame> frames;
        frames.push_back({root, 0});
        index[static_cast<size_t>(root)] = next_index;
        lowlink[static_cast<size_t>(root)] = next_index;
        ++next_index;
        stack.push_back(root);
        on_stack[static_cast<size_t>(root)] = true;

        while (!frames.empty()) {
            Frame &f = frames.back();
            const auto &outs = ddg.op(f.v).outs;
            bool descended = false;
            while (f.edge_pos < outs.size()) {
                EdgeId e = outs[f.edge_pos];
                ++f.edge_pos;
                if (!ddg.edgeActive(e))
                    continue;
                OpId w = ddg.edge(e).dst;
                size_t wi = static_cast<size_t>(w);
                if (index[wi] < 0) {
                    index[wi] = next_index;
                    lowlink[wi] = next_index;
                    ++next_index;
                    stack.push_back(w);
                    on_stack[wi] = true;
                    frames.push_back({w, 0});
                    descended = true;
                    break;
                } else if (on_stack[wi]) {
                    size_t vi = static_cast<size_t>(f.v);
                    lowlink[vi] = std::min(lowlink[vi], index[wi]);
                }
            }
            if (descended)
                continue;

            // Finished v: pop frame, close SCC if root.
            OpId v = f.v;
            size_t vi = static_cast<size_t>(v);
            frames.pop_back();
            if (!frames.empty()) {
                size_t pi = static_cast<size_t>(frames.back().v);
                lowlink[pi] = std::min(lowlink[pi], lowlink[vi]);
            }
            if (lowlink[vi] == index[vi]) {
                // Emit the SCC in place from the Tarjan stack: sort
                // its segment, hand it to the visitor, then pop.
                size_t base = stack.size();
                while (true) {
                    --base;
                    on_stack[static_cast<size_t>(stack[base])] =
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
            st.index[static_cast<size_t>(id)] < 0) {
            st.run(id);
        }
    }
}

std::vector<Scc>
stronglyConnectedComponents(const Ddg &ddg)
{
    std::vector<Scc> sccs;
    forEachScc(ddg, [&](const OpId *ops, size_t n) {
        sccs.emplace_back(ops, ops + n);
    });
    return sccs;
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
