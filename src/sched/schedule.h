#ifndef DMS_SCHED_SCHEDULE_H
#define DMS_SCHED_SCHEDULE_H

/**
 * @file
 * Partial modulo schedule: per-operation placements plus the modulo
 * reservation table, with the eviction machinery both IMS and DMS
 * backtracking rely on. Designed for reuse across the II ladder:
 * reset() re-shapes the arenas for a new attempt without
 * reallocating, and the hot queries (findFreeSlot,
 * violatedSuccessors) are incremental rather than rescans.
 * maxTime() is a scan: it is read once per compile.
 */

#include <memory>
#include <vector>

#include "ir/ddg.h"
#include "machine/machine.h"
#include "support/diag.h"
#include "machine/reservation.h"
#include "sched/priority.h"
#include "support/types.h"

namespace dms {

/** Where and when one operation is placed. */
struct Placement
{
    Cycle time = kUnscheduled;
    ClusterId cluster = kInvalidCluster;
    int fuInstance = -1;

    bool scheduled() const { return time != kUnscheduled; }
};

/**
 * A (possibly partial) modulo schedule at a fixed II. Grows with the
 * DDG: operations appended to the graph (moves) get placements on
 * demand.
 */
class PartialSchedule
{
  public:
    PartialSchedule(const Ddg &ddg, const MachineModel &machine,
                    int ii);

    /**
     * Reset to an empty schedule at a (possibly different) II,
     * reusing every allocation. The referenced DDG must already be
     * in its fresh-attempt state (e.g. after Ddg::resetTo()).
     */
    void reset(int ii);

    int ii() const { return ii_; }
    const MachineModel &machine() const { return machine_; }
    const Ddg &ddg() const { return *ddg_; }

    /**
     * Placement accessors are defined inline (below the class):
     * they sit in every scheduler inner loop and the call overhead
     * showed in the hot-path profile when they lived in
     * schedule.cc. The scheduled() asserts survive NDEBUG.
     */
    bool isScheduled(OpId op) const;
    Cycle timeOf(OpId op) const;
    ClusterId clusterOf(OpId op) const;
    const Placement &placement(OpId op) const;

    /**
     * Earliest start of @p op given its scheduled predecessors:
     * max(0, max over active in-edges from scheduled sources of
     * time(src) + latency - II * distance).
     */
    Cycle earlyStart(OpId op) const;

    /**
     * Rau's time-slot search: the first cycle in
     * [early, early + II - 1] with a free FU instance in
     * @p cluster, or kUnscheduled if every row is occupied.
     * O(II/64) via the reservation table's row bitmask.
     */
    Cycle findFreeSlot(OpId op, ClusterId cluster, Cycle early) const;

    /**
     * Forced slot when no free one exists: max(early, 1 + the time
     * of the previous placement of @p op), which guarantees
     * progress across repeated evictions (Rau).
     */
    Cycle forcedSlot(OpId op, Cycle early) const;

    /**
     * Place @p op at (cycle, cluster) using a free FU instance.
     * @return false (and no change) if the row is full.
     */
    bool tryPlace(OpId op, Cycle cycle, ClusterId cluster);

    /**
     * Place @p op at (cycle, cluster), evicting the lowest-height
     * occupant if every instance is busy. Evicted ops are appended
     * to @p evicted and already unscheduled on return.
     */
    void placeEvicting(OpId op, Cycle cycle, ClusterId cluster,
                       const Heights &heights,
                       std::vector<OpId> &evicted);

    /** Remove @p op from the schedule. */
    void unschedule(OpId op);

    /**
     * Scheduled successors of @p op whose dependence constraint
     * time(dst) >= time(op) + lat - II*dist is now violated,
     * deduplicated in first-encounter order, appended to @p out
     * (which is cleared first).
     */
    void violatedSuccessors(OpId op, std::vector<OpId> &out) const;

    /** Number of live ops currently scheduled. */
    int scheduledCount() const { return scheduled_count_; }

    /** Times this op has ever been placed (for forced slots). */
    int placementCount(OpId op) const;

    /**
     * Largest scheduled time of a live op, or -1 for an empty
     * schedule. A scan over the ops.
     */
    Cycle maxTime() const;

    const ReservationTable &reservations() const { return rt_; }

  private:
    void ensureSize(OpId op) const;

    /** Record a placement into a known-free instance. */
    void placeAt(OpId op, Cycle cycle, ClusterId cluster,
                 FuClass cls, int instance);

    const Ddg *ddg_;
    const MachineModel &machine_;
    int ii_;
    ReservationTable rt_;
    mutable std::vector<Placement> placements_;
    /** Last time each op was placed at (kUnscheduled if never). */
    mutable std::vector<Cycle> last_time_;
    mutable std::vector<int> times_placed_;
    int scheduled_count_ = 0;

    /** Epoch-stamped seen set for violatedSuccessors dedup. */
    mutable std::vector<std::uint32_t> seen_epoch_;
    mutable std::uint32_t epoch_ = 0;
};

inline void
PartialSchedule::ensureSize(OpId op) const
{
    size_t need = static_cast<size_t>(op) + 1;
    if (placements_.size() < need) {
        placements_.resize(need);
        last_time_.resize(need, kUnscheduled);
        times_placed_.resize(need, 0);
        seen_epoch_.resize(need, 0);
    }
}

inline bool
PartialSchedule::isScheduled(OpId op) const
{
    ensureSize(op);
    return placements_[static_cast<size_t>(op)].scheduled();
}

inline Cycle
PartialSchedule::timeOf(OpId op) const
{
    ensureSize(op);
    const Placement &p = placements_[static_cast<size_t>(op)];
    DMS_ASSERT(p.scheduled(), "timeOf unscheduled %s",
               ddg_->opLabel(op).c_str());
    return p.time;
}

inline ClusterId
PartialSchedule::clusterOf(OpId op) const
{
    ensureSize(op);
    const Placement &p = placements_[static_cast<size_t>(op)];
    DMS_ASSERT(p.scheduled(), "clusterOf unscheduled %s",
               ddg_->opLabel(op).c_str());
    return p.cluster;
}

inline const Placement &
PartialSchedule::placement(OpId op) const
{
    ensureSize(op);
    return placements_[static_cast<size_t>(op)];
}

} // namespace dms

#endif // DMS_SCHED_SCHEDULE_H
