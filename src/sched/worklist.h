#ifndef DMS_SCHED_WORKLIST_H
#define DMS_SCHED_WORKLIST_H

/**
 * @file
 * Height-bucketed priority worklist shared by IMS and DMS. Both
 * schedulers repeatedly pick the highest-height unscheduled
 * operation (ties broken by lowest id); the linear rescans this
 * replaces were O(ops) per placement. Heights are fixed for the
 * lifetime of one (II, restart) attempt, so operations bucket by
 * height once and pushes/pops touch only the affected bucket:
 * push is O(log bucket) and pop amortizes to O(1) plus the bucket
 * heap operation. Eviction churn re-pushes operations; a membership
 * flag deduplicates re-pushes of an operation already waiting.
 *
 * Buckets are *dense* while the attempt's height range is at most
 * max(2 × live ops, 64): one bucket per height offset from the
 * minimum, found by subtraction. Beyond that they are
 * *rank-compressed*: one bucket per distinct height (sorted-unique
 * at build time), found by binary search. Either way the bucket
 * array holds at most max(2 × live ops, 64) buckets whatever the
 * height range, so sparse height tables (huge latencies, long
 * chains) cost nothing.
 *
 * Invariant while a scheduler runs: the worklist holds exactly the
 * live, unscheduled, non-move operations. Move operations never
 * enter — they are scheduled at chain creation and removed from the
 * graph on dissolution.
 */

#include <cstdint>
#include <vector>

#include "ir/ddg.h"
#include "sched/priority.h"

namespace dms {

/** Priority worklist over one attempt's fixed height table. */
class Worklist
{
  public:
    /**
     * Rebuild for a fresh attempt: bucket every live op of @p ddg
     * by @p heights and mark all of them waiting. Reuses the
     * arenas of previous builds.
     */
    void build(const Ddg &ddg, const Heights &heights);

    /**
     * Re-insert an evicted op. No-op if already waiting. Only ops
     * that existed at build() time may be pushed.
     */
    void push(OpId op);

    /**
     * Remove and return the highest-height waiting op, ties broken
     * by lowest id (the exact order of the linear-scan pickNext
     * this replaces), or kInvalidOp when empty.
     */
    OpId pop();

    bool empty() const { return size_ == 0; }
    int size() const { return size_; }

  private:
    /** One vector per distinct height (rank order), kept as a
     * min-heap on op id. */
    std::vector<std::vector<OpId>> buckets_;
    /** op -> bucket index (fixed at build). */
    std::vector<std::int32_t> bucket_of_;
    /** Sorted distinct heights of the current attempt (scratch). */
    std::vector<std::int64_t> ranks_;
    /** op -> currently waiting? */
    std::vector<std::uint8_t> waiting_;
    /** Highest possibly-non-empty bucket (lazily decreased). */
    int top_ = -1;
    int size_ = 0;
};

} // namespace dms

#endif // DMS_SCHED_WORKLIST_H
