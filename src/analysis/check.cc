#include "analysis/check.h"

#include "analysis/builtin_checks.h"

namespace dms {

ScheduleView
viewOf(const PartialSchedule &ps)
{
    ScheduleView view;
    view.ii = ps.ii();
    const int ops = ps.ddg().numOps();
    view.placements.resize(static_cast<size_t>(ops));
    for (OpId op = 0; op < ops; ++op) {
        if (ps.isScheduled(op))
            view.placements[static_cast<size_t>(op)] =
                ps.placement(op);
    }
    return view;
}

const std::vector<Check> &
allChecks()
{
    // Each table is ordered by id and the family prefixes sort in
    // this order, so the concatenation is ordered by id.
    static const std::vector<Check> checks = [] {
        std::vector<Check> all;
        for (const lint::CheckTable &table :
             {lint::kKernelChecks, lint::kLoopChecks,
              lint::kMachineChecks, lint::kObsChecks,
              lint::kQueueChecks, lint::kScheduleChecks})
            all.insert(all.end(), table.begin, table.end);
        return all;
    }();
    return checks;
}

} // namespace dms
