#ifndef DMS_IR_SCC_H
#define DMS_IR_SCC_H

/**
 * @file
 * Strongly-connected components of a DDG (Tarjan). Recurrences —
 * the loops of the dependence graph — live inside non-trivial SCCs;
 * RecMII is computed per SCC and set 2 of the paper's evaluation is
 * exactly the loops whose DDGs have no non-trivial SCC.
 */

#include <functional>

#include "ir/ddg.h"

namespace dms {

/**
 * Visit every SCC over live ops and active edges (every dependence
 * kind participates; any kind of cycle constrains the II) in Tarjan
 * emission order, without materializing a vector per component:
 * @p fn receives the members sorted ascending, valid only for the
 * duration of the call. @p fn must not mutate the graph.
 */
void forEachScc(const Ddg &ddg,
                const std::function<void(const OpId *, size_t)> &fn);

/** True if the DDG contains a dependence cycle (a recurrence). */
bool hasRecurrence(const Ddg &ddg);

} // namespace dms

#endif // DMS_IR_SCC_H
