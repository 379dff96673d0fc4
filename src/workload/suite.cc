#include "workload/suite.h"

#include "ir/scc.h"

namespace dms {

std::vector<Loop>
standardSuite(std::uint64_t seed, int synth_count)
{
    std::vector<Loop> suite = synthesizeSuite(seed, synth_count);
    for (Loop &k : namedKernels())
        suite.push_back(std::move(k));
    return suite;
}

std::vector<size_t>
selectSet(const std::vector<Loop> &suite, LoopSet set)
{
    std::vector<size_t> idx;
    for (size_t i = 0; i < suite.size(); ++i) {
        if (set == LoopSet::Set1 || !hasRecurrence(suite[i].ddg))
            idx.push_back(i);
    }
    return idx;
}

} // namespace dms
