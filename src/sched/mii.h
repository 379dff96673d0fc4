#ifndef DMS_SCHED_MII_H
#define DMS_SCHED_MII_H

/**
 * @file
 * Minimum initiation interval bounds (Rau, "Iterative Modulo
 * Scheduling"). MII = max(ResMII, RecMII); the II search of every
 * scheduler starts there.
 */

#include "ir/ddg.h"
#include "machine/machine.h"

namespace dms {

/**
 * Resource-constrained MII: for each FU class,
 * ceil(ops of class / total FUs of class), maximized over classes.
 * On clustered machines the copy-unit class participates, so copy
 * operations inserted by the pre-pass can raise the bound — the
 * paper's explanation for the 2-3 cluster overheads.
 *
 * Panics if the DDG uses a class the machine has zero units of.
 */
int resMii(const Ddg &ddg, const MachineModel &machine);

/**
 * Recurrence-constrained MII: the smallest II such that no
 * dependence cycle has positive slack requirement, i.e. for every
 * elementary cycle, sum(latency) <= II * sum(distance). Computed
 * per SCC by binary search over II with positive-cycle detection
 * (Bellman-Ford). Returns 1 for acyclic DDGs.
 */
int recMii(const Ddg &ddg);

/**
 * RecMII of the recurrences alone: 0 when the DDG has no dependence
 * cycle, recMii() otherwise. It finds both answers in one SCC pass,
 * where `hasRecurrence(g) ? recMii(g) : 0` makes two.
 */
int recurrenceBound(const Ddg &ddg);

} // namespace dms

#endif // DMS_SCHED_MII_H
