#include "support/stats.h"

#include <algorithm>
#include <cmath>

#include "support/diag.h"

namespace dms {

void
Samples::add(double x)
{
    max_ = values_.empty() ? x : std::max(max_, x);
    sum_ += x;
    values_.push_back(x);
}

void
Samples::merge(const Samples &other)
{
    if (!other.values_.empty())
        max_ = values_.empty() ? other.max_
                               : std::max(max_, other.max_);
    sum_ += other.sum_;
    values_.insert(values_.end(), other.values_.begin(),
                   other.values_.end());
}

double
Samples::mean() const
{
    return values_.empty()
               ? 0.0
               : sum_ / static_cast<double>(values_.size());
}

double
Samples::max() const
{
    return values_.empty() ? 0.0 : max_;
}

double
Samples::percentile(double p) const
{
    DMS_ASSERT(p >= 0.0 && p <= 100.0, "percentile %f out of range",
               p);
    if (values_.empty())
        return 0.0;
    std::vector<double> scratch(values_);
    size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(scratch.size())));
    if (rank > 0)
        --rank; // nearest-rank is 1-based
    std::nth_element(scratch.begin(),
                     scratch.begin() + static_cast<long>(rank),
                     scratch.end());
    return scratch[rank];
}

} // namespace dms
