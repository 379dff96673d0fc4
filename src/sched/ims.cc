#include "sched/ims.h"

#include <algorithm>

#include "obs/trace.h"
#include "sched/mii.h"
#include "sched/priority.h"
#include "sched/worklist.h"
#include "support/diag.h"

namespace dms {

int
defaultMaxII(int mii)
{
    return 6 * mii + 64;
}

namespace {

/** Scratch arenas reused across the whole II ladder of one run. */
struct ImsArena
{
    Heights heights;
    Worklist worklist;
    std::vector<OpId> evicted;
    std::vector<OpId> violated;
};

bool
imsPass(const Ddg &ddg, int ii, long budget,
        const std::vector<ClusterId> *assignment,
        PartialSchedule &ps, ImsArena &arena, long &used)
{
    // Divergence means this II is below the true RecMII (a hostile
    // knownRecMii hint), which is a failed attempt — the ladder
    // recovers at a legal II.
    if (!tryComputeHeights(ddg, ii, arena.heights))
        return false;
    const Heights &heights = arena.heights;
    arena.worklist.build(ddg, heights);

    while (ps.scheduledCount() < ddg.liveOpCount()) {
        if (budget-- <= 0)
            return false;
        ++used;

        OpId op = arena.worklist.pop();
        DMS_ASSERT(op != kInvalidOp, "no unscheduled op found");

        ClusterId cluster = 0;
        if (assignment) {
            cluster = (*assignment)[static_cast<size_t>(op)];
            DMS_ASSERT(cluster != kInvalidCluster,
                       "op %s has no cluster assignment",
                       ddg.opLabel(op).c_str());
        }

        Cycle early = ps.earlyStart(op);
        Cycle slot = ps.findFreeSlot(op, cluster, early);
        if (slot == kUnscheduled)
            slot = ps.forcedSlot(op, early);

        arena.evicted.clear();
        ps.placeEvicting(op, slot, cluster, heights,
                         arena.evicted);
        for (OpId v : arena.evicted)
            arena.worklist.push(v);
        ps.violatedSuccessors(op, arena.violated);
        for (OpId v : arena.violated) {
            ps.unschedule(v);
            arena.worklist.push(v);
        }
    }
    return true;
}

SchedOutcome
runIms(const Ddg &ddg, const MachineModel &machine,
       const std::vector<ClusterId> *assignment,
       const SchedParams &params)
{
    SchedOutcome out;
    out.resMii = params.knownResMii >= 0 ? params.knownResMii
                                         : resMii(ddg, machine);
    out.recMii = params.knownRecMii >= 0 ? params.knownRecMii
                                         : recMii(ddg);
    out.mii = std::max(out.resMii, out.recMii);
    int max_ii = params.maxII > 0 ? params.maxII
                                  : defaultMaxII(out.mii);

    long budget =
        static_cast<long>(params.budgetRatio) * ddg.liveOpCount();
    budget = std::max<long>(budget, 1);

    // One schedule and one arena serve the whole II ladder;
    // reset() re-shapes them per attempt without reallocating.
    auto ps = std::make_unique<PartialSchedule>(ddg, machine,
                                                std::max(out.mii, 1));
    ImsArena arena;
    // Rung spans ride the worker's thread-local trace; the armed
    // check is hoisted so the disarmed ladder pays one relaxed
    // load for the whole search.
    obs::Trace *tr =
        obs::traceArmed() ? obs::currentTrace() : nullptr;
    for (int ii = out.mii; ii <= max_ii; ++ii) {
        ++out.attempts;
        obs::ScopedSpan rung(tr, "sched.attempt");
        if (tr != nullptr)
            rung.note(strfmt("ii=%d", ii));
        ps->reset(ii);
        if (imsPass(ddg, ii, budget, assignment, *ps, arena,
                    out.budgetUsed)) {
            out.ok = true;
            out.ii = ii;
            out.schedule = std::move(ps);
            return out;
        }
    }
    return out;
}

} // namespace

SchedOutcome
scheduleIms(const Ddg &ddg, const MachineModel &machine,
            const SchedParams &params)
{
    return runIms(ddg, machine, nullptr, params);
}

SchedOutcome
scheduleImsFixed(const Ddg &ddg, const MachineModel &machine,
                 const std::vector<ClusterId> &assignment,
                 const SchedParams &params)
{
    DMS_ASSERT(static_cast<int>(assignment.size()) >= ddg.numOps(),
               "assignment smaller than DDG");
    return runIms(ddg, machine, &assignment, params);
}

} // namespace dms
