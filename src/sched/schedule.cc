#include "sched/schedule.h"

#include <algorithm>

#include "support/diag.h"

namespace dms {

PartialSchedule::PartialSchedule(const Ddg &ddg,
                                 const MachineModel &machine, int ii)
    : ddg_(&ddg), machine_(machine), ii_(ii), rt_(machine, ii)
{
    ensureSize(ddg.numOps() - 1);
}

void
PartialSchedule::reset(int ii)
{
    ii_ = ii;
    rt_.reset(ii);
    const size_t n = static_cast<size_t>(ddg_->numOps());
    placements_.assign(n, Placement{});
    last_time_.assign(n, kUnscheduled);
    times_placed_.assign(n, 0);
    seen_epoch_.assign(n, 0);
    epoch_ = 0;
    scheduled_count_ = 0;
}

Cycle
PartialSchedule::earlyStart(OpId op) const
{
    Cycle early = 0;
    for (EdgeId e : ddg_->op(op).ins) {
        if (!ddg_->edgeActive(e))
            continue;
        const Edge &ed = ddg_->edge(e);
        if (!isScheduled(ed.src))
            continue;
        Cycle bound = timeOf(ed.src) + ed.latency -
                      ii_ * ed.distance;
        early = std::max(early, bound);
    }
    return early;
}

Cycle
PartialSchedule::findFreeSlot(OpId op, ClusterId cluster,
                              Cycle early) const
{
    FuClass cls = fuClassOf(ddg_->op(op).opc);
    return rt_.firstFreeCycle(cluster, cls, early);
}

Cycle
PartialSchedule::forcedSlot(OpId op, Cycle early) const
{
    ensureSize(op);
    Cycle prev = last_time_[static_cast<size_t>(op)];
    if (prev == kUnscheduled || prev + 1 < early)
        return early;
    return prev + 1;
}

void
PartialSchedule::placeAt(OpId op, Cycle cycle, ClusterId cluster,
                         FuClass cls, int instance)
{
    rt_.place(op, cluster, cls, instance, cycle % ii_);
    Placement &p = placements_[static_cast<size_t>(op)];
    p.time = cycle;
    p.cluster = cluster;
    p.fuInstance = instance;
    last_time_[static_cast<size_t>(op)] = cycle;
    ++times_placed_[static_cast<size_t>(op)];
    ++scheduled_count_;
}

bool
PartialSchedule::tryPlace(OpId op, Cycle cycle, ClusterId cluster)
{
    ensureSize(op);
    DMS_ASSERT(!isScheduled(op), "placing scheduled %s",
               ddg_->opLabel(op).c_str());
    DMS_ASSERT(cycle >= 0, "negative cycle %d for %s", cycle,
               ddg_->opLabel(op).c_str());
    FuClass cls = fuClassOf(ddg_->op(op).opc);
    int inst = rt_.freeInstance(cluster, cls, cycle % ii_);
    if (inst < 0)
        return false;
    placeAt(op, cycle, cluster, cls, inst);
    return true;
}

void
PartialSchedule::placeEvicting(OpId op, Cycle cycle, ClusterId cluster,
                               const Heights &heights,
                               std::vector<OpId> &evicted)
{
    if (tryPlace(op, cycle, cluster))
        return;

    // Every instance busy: evict the lowest-height occupant and
    // re-place straight into its instance (the only free one).
    FuClass cls = fuClassOf(ddg_->op(op).opc);
    int row = cycle % ii_;
    int per = machine_.fusPerCluster(cls);
    DMS_ASSERT(per > 0, "no %s units in cluster %d",
               fuClassName(cls), cluster);
    int victim_inst = 0;
    OpId victim = rt_.at(cluster, cls, 0, row);
    for (int i = 1; i < per; ++i) {
        OpId occ = rt_.at(cluster, cls, i, row);
        auto h = [&](OpId o) {
            return o < static_cast<OpId>(heights.size())
                       ? heights[static_cast<size_t>(o)]
                       : 0;
        };
        if (h(occ) < h(victim)) {
            victim = occ;
            victim_inst = i;
        }
    }
    DMS_ASSERT(victim != kInvalidOp, "full row with no occupant");
    unschedule(victim);
    evicted.push_back(victim);
    placeAt(op, cycle, cluster, cls, victim_inst);
}

void
PartialSchedule::unschedule(OpId op)
{
    ensureSize(op);
    Placement &p = placements_[static_cast<size_t>(op)];
    DMS_ASSERT(p.scheduled(), "unscheduling unscheduled %s",
               ddg_->opLabel(op).c_str());
    FuClass cls = fuClassOf(ddg_->op(op).opc);
    rt_.clear(op, p.cluster, cls, p.fuInstance, p.time % ii_);
    p = Placement{};
    --scheduled_count_;
}

void
PartialSchedule::violatedSuccessors(OpId op,
                                    std::vector<OpId> &out) const
{
    out.clear();
    DMS_ASSERT(isScheduled(op), "violatedSuccessors of unscheduled op");
    if (++epoch_ == 0) {
        // Epoch wrapped: stale stamps could alias, so restamp.
        std::fill(seen_epoch_.begin(), seen_epoch_.end(), 0);
        epoch_ = 1;
    }
    Cycle t = timeOf(op);
    for (EdgeId e : ddg_->op(op).outs) {
        if (!ddg_->edgeActive(e))
            continue;
        const Edge &ed = ddg_->edge(e);
        if (ed.dst == op)
            continue; // self-loop: t >= t + lat - II*d checked below
        if (!isScheduled(ed.dst))
            continue;
        if (timeOf(ed.dst) < t + ed.latency - ii_ * ed.distance) {
            if (seen_epoch_[static_cast<size_t>(ed.dst)] != epoch_) {
                seen_epoch_[static_cast<size_t>(ed.dst)] = epoch_;
                out.push_back(ed.dst);
            }
        }
    }
}

int
PartialSchedule::placementCount(OpId op) const
{
    ensureSize(op);
    return times_placed_[static_cast<size_t>(op)];
}

Cycle
PartialSchedule::maxTime() const
{
    Cycle m = -1;
    for (OpId id = 0; id < ddg_->numOps(); ++id) {
        if (ddg_->opLive(id) && isScheduled(id))
            m = std::max(m, timeOf(id));
    }
    return m;
}

} // namespace dms
