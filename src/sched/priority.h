#ifndef DMS_SCHED_PRIORITY_H
#define DMS_SCHED_PRIORITY_H

/**
 * @file
 * Height-based scheduling priority (Rau's HeightR). The height of an
 * operation is the length of the longest latency-weighted path it
 * starts, under the modulo-scheduling edge weight
 * w(e) = latency - II * distance. Operations with larger height are
 * more critical and are scheduled first.
 *
 * Each IMS and DMS attempt relaxes the table once at its II through
 * tryComputeHeights(); a divergent relaxation is a failed attempt.
 */

#include <cstdint>
#include <vector>

#include "ir/ddg.h"

namespace dms {

/** Per-op heights, indexed by OpId. Dead ops get 0. */
using Heights = std::vector<std::int64_t>;

/**
 * Compute heights for the given II by longest-path relaxation into
 * @p out (resized and overwritten, reusing its capacity). At
 * II >= RecMII every cycle has non-positive weight, so a fixpoint
 * exists. False when relaxation diverged within its budget, which
 * means the II is below the true RecMII (a hostile knownRecMii hint
 * or a corrupt graph); @p out is valid only on true. Schedulers
 * treat a false as a failed attempt and climb the II ladder instead
 * of taking the process down.
 */
bool tryComputeHeights(const Ddg &ddg, int ii, Heights &out);

} // namespace dms

#endif // DMS_SCHED_PRIORITY_H
