#include "sched/mii.h"

#include <algorithm>

#include "ir/scc.h"
#include "support/diag.h"

namespace dms {

int
resMii(const Ddg &ddg, const MachineModel &machine)
{
    std::vector<int> counts = ddg.opCountByClass();
    int mii = 1;
    for (int cls = 0; cls < kNumFuClasses; ++cls) {
        if (counts[static_cast<size_t>(cls)] == 0)
            continue;
        int fus = machine.totalFus(static_cast<FuClass>(cls));
        if (fus == 0) {
            panic("DDG needs %s units but machine '%s' has none",
                  fuClassName(static_cast<FuClass>(cls)),
                  machine.describe().c_str());
        }
        int need = (counts[static_cast<size_t>(cls)] + fus - 1) / fus;
        mii = std::max(mii, need);
    }
    return mii;
}

namespace {

/**
 * True if, at the given II, the SCC @p members[0..n) contains a
 * cycle of positive weight under w(e) = latency - II * distance
 * (i.e. II is too small). Bellman-Ford longest-path relaxation
 * limited to the SCC. @p dense maps op -> index within the SCC (-1
 * outside); @p dist is caller-owned scratch so the binary search
 * over II does not reallocate per probe.
 */
bool
hasPositiveCycle(const Ddg &ddg, const OpId *members, size_t n,
                 int ii, const std::vector<int> &dense,
                 std::vector<std::int64_t> &dist)
{
    dist.assign(n, 0);
    for (size_t pass = 0; pass <= n; ++pass) {
        bool changed = false;
        for (size_t i = 0; i < n; ++i) {
            const OpId u = members[i];
            for (EdgeId e : ddg.op(u).outs) {
                if (!ddg.edgeActive(e))
                    continue;
                const Edge &ed = ddg.edge(e);
                int vi = dense[static_cast<size_t>(ed.dst)];
                if (vi < 0)
                    continue;
                int ui = dense[static_cast<size_t>(u)];
                std::int64_t w = ed.latency -
                    static_cast<std::int64_t>(ii) * ed.distance;
                if (dist[static_cast<size_t>(ui)] + w >
                    dist[static_cast<size_t>(vi)]) {
                    dist[static_cast<size_t>(vi)] =
                        dist[static_cast<size_t>(ui)] + w;
                    changed = true;
                }
            }
        }
        if (!changed)
            return false;
    }
    return true;
}

} // namespace

int
recurrenceBound(const Ddg &ddg)
{
    bool cyclic_any = false;
    int best = 1;
    std::vector<int> dense;
    std::vector<std::int64_t> dist;
    forEachScc(ddg, [&](const OpId *members, size_t n) {
        // Trivial SCCs constrain only via self-loops.
        bool cyclic = n > 1;
        if (!cyclic) {
            for (EdgeId e : ddg.op(members[0]).outs) {
                if (ddg.edgeActive(e) &&
                    ddg.edge(e).dst == members[0]) {
                    cyclic = true;
                }
            }
        }
        if (!cyclic)
            return;
        cyclic_any = true;

        std::int64_t lat_sum = 0;
        for (size_t i = 0; i < n; ++i) {
            for (EdgeId e : ddg.op(members[i]).outs) {
                if (ddg.edgeActive(e))
                    lat_sum += ddg.edge(e).latency;
            }
        }

        // Dense op -> SCC index map, shared by every probe of the
        // binary search and undone per SCC (SCCs are disjoint).
        if (dense.empty())
            dense.assign(static_cast<size_t>(ddg.numOps()), -1);
        for (size_t i = 0; i < n; ++i)
            dense[static_cast<size_t>(members[i])] =
                static_cast<int>(i);

        // Binary search the smallest feasible II for this SCC.
        int lo = best;
        int hi = std::max<int>(lo,
            static_cast<int>(std::min<std::int64_t>(lat_sum, 1 << 20)));
        while (hasPositiveCycle(ddg, members, n, hi, dense, dist))
            hi *= 2;
        while (lo < hi) {
            int mid = lo + (hi - lo) / 2;
            if (hasPositiveCycle(ddg, members, n, mid, dense, dist))
                lo = mid + 1;
            else
                hi = mid;
        }
        best = std::max(best, lo);

        for (size_t i = 0; i < n; ++i)
            dense[static_cast<size_t>(members[i])] = -1;
    });
    return cyclic_any ? best : 0;
}

int
recMii(const Ddg &ddg)
{
    return std::max(1, recurrenceBound(ddg));
}

} // namespace dms
