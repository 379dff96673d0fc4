#ifndef DMS_IR_UNROLL_H
#define DMS_IR_UNROLL_H

/**
 * @file
 * DDG-level loop unrolling. The paper unrolls loop bodies "to
 * provide additional operations to the scheduler whenever
 * necessary" [9] before modulo scheduling; we do the same at the
 * dependence-graph level.
 */

#include "ir/ddg.h"

namespace dms {

/**
 * Unroll a loop body @p factor times into @p out.
 *
 * Each original operation u becomes copies u#0..u#(f-1), where copy
 * j handles original iteration I*f + j of new iteration I. An edge
 * (u -> v, distance d) becomes, for each consumer copy j, an edge
 * from producer copy (j - d) mod f with new distance
 * (d - j + (j - d) mod f) / f. Copies keep the original op's
 * @c origId and record @c iterOffset = j so the simulator can map
 * executed iterations back to original iterations.
 *
 * @p out is rebuilt in place and keeps its buffers (Ddg::clear, or
 * Ddg::resetTo for factor 1, which makes it a plain copy), so a
 * context that unrolls loop after loop into one graph stops
 * churning the allocator at every factor.
 *
 * @pre factor >= 1, the input body is not itself unrolled, and
 * @p out is not @p ddg.
 */
void unrollDdg(const Ddg &ddg, int factor, Ddg &out);

} // namespace dms

#endif // DMS_IR_UNROLL_H
