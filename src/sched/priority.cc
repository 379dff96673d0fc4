#include "sched/priority.h"

namespace dms {

namespace {

/**
 * Relaxation step budget. At a legal II the sweep converges within
 * V passes over E edges; exhausting this bound proves a positive
 * cycle, i.e. an II below the true RecMII.
 */
std::int64_t
relaxBudget(const Ddg &ddg)
{
    return static_cast<std::int64_t>(ddg.numOps() + 1) *
               static_cast<std::int64_t>(ddg.numEdges() + 1) +
           16;
}

/** Longest active out-path start for one op at one II. */
std::int64_t
bestOut(const Ddg &ddg, const Heights &h, OpId v, int ii)
{
    std::int64_t best = 0;
    for (EdgeId e : ddg.op(v).outs) {
        if (!ddg.edgeActive(e))
            continue;
        const Edge &ed = ddg.edge(e);
        std::int64_t cand = h[static_cast<size_t>(ed.dst)] +
                            ed.latency -
                            static_cast<std::int64_t>(ii) *
                                ed.distance;
        if (cand > best)
            best = cand;
    }
    return best;
}

} // namespace

bool
tryComputeHeights(const Ddg &ddg, int ii, Heights &out)
{
    Heights &h = out;
    h.assign(static_cast<size_t>(ddg.numOps()), 0);

    // Longest-path to any sink: h(v) = max(0, max over v->s of
    // h(s) + lat - II*dist). Queue-based relaxation; bounded by
    // V * E updates at a legal II (non-positive cycles only).
    std::int64_t budget = relaxBudget(ddg);

    bool changed = true;
    while (changed) {
        changed = false;
        for (OpId v = ddg.numOps() - 1; v >= 0; --v) {
            if (!ddg.opLive(v))
                continue;
            std::int64_t best = bestOut(ddg, h, v, ii);
            if (best > h[static_cast<size_t>(v)]) {
                h[static_cast<size_t>(v)] = best;
                changed = true;
            }
            if (--budget < 0)
                return false;
        }
    }
    return true;
}

} // namespace dms
