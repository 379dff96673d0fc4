#ifndef DMS_CORE_COMM_H
#define DMS_CORE_COMM_H

/**
 * @file
 * Communication-conflict queries (paper section 3: "a communication
 * conflict occurs when two operations with a true data dependence
 * are scheduled in indirectly-connected clusters"). Only active
 * flow edges participate: anti/output/memory dependences order the
 * schedule but move no value between register files, and replaced
 * edges are covered by their chains.
 */

#include <vector>

#include "ir/ddg.h"
#include "machine/machine.h"
#include "sched/schedule.h"

namespace dms {

/**
 * True if placing @p op in @p cluster creates no communication
 * conflict: every scheduled producer and consumer reachable over an
 * active flow edge sits in the same or an adjacent cluster.
 */
bool commOkAt(const Ddg &ddg, const PartialSchedule &ps,
              const MachineModel &machine, OpId op, ClusterId cluster);

/**
 * True if every *scheduled consumer* of @p op over active flow
 * edges is directly connected to @p cluster. Strategy 2 builds
 * chains toward predecessors only, so a candidate cluster must
 * already be compatible with the scheduled successors.
 */
bool succsOkAt(const Ddg &ddg, const PartialSchedule &ps,
               const MachineModel &machine, OpId op,
               ClusterId cluster);

/**
 * Active flow in-edges of @p op whose scheduled producer is
 * indirectly connected to @p cluster — the edges strategy 2 must
 * bridge with chains of moves. Appended to @p out (cleared first).
 */
void farPredecessorEdges(const Ddg &ddg, const PartialSchedule &ps,
                         const MachineModel &machine, OpId op,
                         ClusterId cluster, std::vector<EdgeId> &out);

/**
 * Scheduled flow neighbours (producers and consumers over active
 * flow edges) of @p op that are indirectly connected to @p op's own
 * cluster — the operations strategy 3 ejects. Appended to @p out
 * (cleared first).
 */
void commConflictPeers(const Ddg &ddg, const PartialSchedule &ps,
                       const MachineModel &machine, OpId op,
                       std::vector<OpId> &out);

/** Reusable buffers for the allocation-free affinity query. */
struct AffinityScratch
{
    std::vector<long> cost;
};

/**
 * Clusters ordered by how close they are to @p op's scheduled flow
 * neighbours (sum of network distances, plus the load of the op's
 * FU class; ties by index rotated by @p rotate): the scan order for
 * strategies 1 and 2. Written into @p out (cleared first);
 * @p scratch holds the per-cluster cost table between calls.
 */
void clustersByAffinity(const Ddg &ddg, const PartialSchedule &ps,
                        const MachineModel &machine, OpId op,
                        int rotate, AffinityScratch &scratch,
                        std::vector<ClusterId> &out);

} // namespace dms

#endif // DMS_CORE_COMM_H
