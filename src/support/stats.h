#ifndef DMS_SUPPORT_STATS_H
#define DMS_SUPPORT_STATS_H

/**
 * @file
 * Exact sample statistics for client-side latency measurement.
 */

#include <cstdint>
#include <vector>

namespace dms {

/**
 * Sample store with exact percentile extraction, used by the
 * load-generator clients. It keeps every sample, so count, mean,
 * max and percentiles are exact. Not thread-safe: each client
 * thread fills its own store and merge() combines them. The serve
 * hot path records into the wait-free obs::LatencyHistogram
 * instead and keeps this class as the exact oracle its accuracy
 * tests compare against. Percentiles use the nearest-rank
 * definition on a scratch copy, so add() stays O(1).
 */
class Samples
{
  public:
    void add(double x);

    std::uint64_t count() const { return values_.size(); }
    double mean() const;
    double max() const;

    /**
     * Nearest-rank percentile for @p p in [0, 100]; 0 when none
     * were recorded.
     */
    double percentile(double p) const;

    /** Fold @p other into this store. */
    void merge(const Samples &other);

  private:
    double sum_ = 0.0;
    double max_ = 0.0;
    std::vector<double> values_;
};

} // namespace dms

#endif // DMS_SUPPORT_STATS_H
