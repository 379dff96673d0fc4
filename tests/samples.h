#ifndef DMS_TESTS_SAMPLES_H
#define DMS_TESTS_SAMPLES_H

/**
 * @file
 * Exact sample store: the oracle obs::LatencyHistogram's accuracy
 * tests compare against. It keeps every sample, so count, mean,
 * max and percentiles are exact. Percentiles use the nearest-rank
 * definition on a scratch copy, so add() stays O(1).
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "support/diag.h"

namespace dms {

class Samples
{
  public:
    void
    add(double x)
    {
        max_ = values_.empty() ? x : std::max(max_, x);
        sum_ += x;
        values_.push_back(x);
    }

    std::uint64_t count() const { return values_.size(); }

    double
    mean() const
    {
        return values_.empty()
                   ? 0.0
                   : sum_ / static_cast<double>(values_.size());
    }

    double max() const { return values_.empty() ? 0.0 : max_; }

    /**
     * Nearest-rank percentile for @p p in [0, 100]; 0 when none
     * were recorded.
     */
    double
    percentile(double p) const
    {
        DMS_ASSERT(p >= 0.0 && p <= 100.0,
                   "percentile %f out of range", p);
        if (values_.empty())
            return 0.0;
        std::vector<double> scratch(values_);
        size_t rank = static_cast<size_t>(std::ceil(
            p / 100.0 * static_cast<double>(scratch.size())));
        if (rank > 0)
            --rank; // nearest-rank is 1-based
        std::nth_element(scratch.begin(),
                         scratch.begin() + static_cast<long>(rank),
                         scratch.end());
        return scratch[rank];
    }

  private:
    double sum_ = 0.0;
    double max_ = 0.0;
    std::vector<double> values_;
};

} // namespace dms

#endif // DMS_TESTS_SAMPLES_H
