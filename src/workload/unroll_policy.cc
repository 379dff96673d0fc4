#include "workload/unroll_policy.h"

#include <algorithm>

#include "ir/unroll.h"
#include "sched/mii.h"
#include "support/diag.h"

namespace dms {

int
chooseUnrollFactor(const Ddg &ddg, const MachineModel &machine,
                   int max_factor, int max_ops)
{
    // recMii() floors at 1 even for acyclic bodies; only a real
    // recurrence scales with the unroll factor.
    const int rec = recurrenceBound(ddg);
    const std::vector<int> counts = ddg.opCountByClass();

    double best_rate = 0.0;
    int best_u = 1;
    for (int u = 1; u <= max_factor; ++u) {
        if (u > 1 && u * ddg.liveOpCount() > max_ops)
            break;
        // Estimated II of the unrolled body, per original
        // iteration. Recurrence bounds scale linearly with u (u
        // consecutive original iterations chain through the cycle).
        int ii_est = std::max(1, u * rec);
        for (int cls = 0; cls < kNumFuClasses; ++cls) {
            int n = counts[static_cast<size_t>(cls)];
            if (n == 0)
                continue;
            int f = machine.totalFus(static_cast<FuClass>(cls));
            if (f == 0)
                continue; // copy ops appear only post-prepass
            ii_est = std::max(ii_est, (u * n + f - 1) / f);
        }
        double rate = static_cast<double>(ii_est) / u;
        if (u == 1 || rate < best_rate - 1e-9) {
            best_rate = rate;
            best_u = u;
        }
    }
    return best_u;
}

Ddg
applyUnrollPolicy(const Ddg &ddg, const MachineModel &machine,
                  int max_factor, int max_ops)
{
    Ddg out;
    unrollDdg(ddg,
              chooseUnrollFactor(ddg, machine, max_factor, max_ops),
              out);
    return out;
}

} // namespace dms
