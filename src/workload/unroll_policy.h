#ifndef DMS_WORKLOAD_UNROLL_POLICY_H
#define DMS_WORKLOAD_UNROLL_POLICY_H

/**
 * @file
 * Unrolling policy (paper section 4: "The original body of many of
 * those loops do not present enough parallelism to saturate the FUs
 * of wide-issue machines. Hence, loop unrolling was performed to
 * provide additional operations to the scheduler whenever
 * necessary" [Lavery-Hwu]).
 *
 * The policy minimizes the analytic per-original-iteration
 * initiation rate II_est(u)/u, where II_est(u) =
 * max(u * RecMII_1, max over classes ceil(u * n_c / f_c)), picking
 * the smallest factor that achieves the minimum. At equal width the
 * clustered and unclustered machines have identical useful FU
 * counts, so both schedule the same unrolled body — the paper's
 * apples-to-apples comparison.
 */

#include "ir/ddg.h"
#include "machine/machine.h"

namespace dms {

/** Choose the unroll factor (1..maxFactor) for a body. */
int chooseUnrollFactor(const Ddg &ddg, const MachineModel &machine,
                       int max_factor = 8, int max_ops = 512);

/**
 * Unroll @p ddg per policy into a fresh graph (a plain copy when the
 * factor is 1). The pipeline's unroll stage instead unrolls into its
 * context's reused body with unrollDdg().
 */
Ddg applyUnrollPolicy(const Ddg &ddg, const MachineModel &machine,
                      int max_factor = 8, int max_ops = 512);

} // namespace dms

#endif // DMS_WORKLOAD_UNROLL_POLICY_H
