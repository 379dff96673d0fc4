#ifndef DMS_OBS_HISTOGRAM_H
#define DMS_OBS_HISTOGRAM_H

/**
 * @file
 * Lock-free log-bucketed latency histogram for the serve hot path
 * and the load-generator clients.
 *
 * An exact sample store would need a mutex, a real serialization
 * point at socket-level request rates, and an O(samples) copy per
 * snapshot. LatencyHistogram is a fixed array of atomic counters
 * instead: one relaxed fetch_add per record() (wait-free, no
 * allocation, no lock), and snapshots that are a plain relaxed
 * sweep of the array.
 *
 * ## Bucket layout and error bound
 *
 * Buckets are logarithmic with linear sub-buckets: values are
 * binned by octave (power of two above kMinMs) and each octave is
 * cut into kSub = 2^kSubBits equal-width slices — the classic
 * HDR-histogram layout, computed directly from the double's
 * exponent and top mantissa bits (no integer-tick quantization).
 * Within octave e the bucket width is 2^e * kMinMs / kSub and every
 * bucket's lower bound is at least 2^e * kMinMs, so reporting the
 * bucket midpoint is off from the true value by at most half a
 * width:
 *
 *     relative error <= 1 / (2 * kSub) = 1/32 = 3.125%
 *
 * for every value in [kMinMs, kMinMs * 2^kOctaves) — comfortably
 * inside a <= 5% error budget. Values below kMinMs
 * (sub-microsecond latencies) land in a dedicated underflow
 * bucket represented as kMinMs / 2; values at or above the top
 * land in the last bucket (the range spans ~12 days, so only an
 * absurd latency clamps). count and max are exact for every
 * recorded value: max is maintained as a CAS-max over the double's
 * bit pattern (non-negative doubles order like their bits), and
 * count is derived from the bucket counts themselves so the
 * conservation law sum(buckets) == count holds by construction
 * even against concurrent record() calls.
 *
 * Percentiles use the nearest-rank definition over the bucket
 * counts: the k-th smallest value lies in the bucket where the
 * cumulative count first reaches k (bucketFor is monotone), so the
 * reported midpoint is within the bound above of the exact
 * nearest-rank sample — the parity test in tests/test_obs.cc pins
 * this per workload against the exact store in tests/samples.h.
 */

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

namespace dms {
namespace obs {

/**
 * Point-in-time copy of a LatencyHistogram: plain data, mergeable,
 * and the unit the metrics text format serializes. buckets holds
 * (bucket index, count) pairs for the non-empty buckets only,
 * sorted by index.
 */
struct HistogramSnapshot
{
    std::uint64_t count = 0;
    double sumMs = 0.0;
    double maxMs = 0.0;
    std::vector<std::pair<int, std::uint64_t>> buckets;

    /** Exact mean over every recorded value; 0 when empty. */
    double mean() const;

    /**
     * Nearest-rank percentile for @p p in [0, 100]; 0 when empty.
     * Returns the midpoint of the bucket holding the nearest-rank
     * sample (the <= 3.125% bound above).
     */
    double percentile(double p) const;

    /** Fold @p other into this snapshot (counts add, max maxes). */
    void merge(const HistogramSnapshot &other);
};

/**
 * The live accumulator. record() is wait-free and thread-safe;
 * snapshot() may run concurrently with any number of record()s.
 */
class LatencyHistogram
{
  public:
    /** Sub-bucket resolution: 2^kSubBits slices per octave. */
    static constexpr int kSubBits = 4;
    static constexpr int kSub = 1 << kSubBits;
    /** Smallest resolvable latency (1 microsecond). */
    static constexpr double kMinMs = 1e-3;
    /** Octaves covered above kMinMs (~12.7 days of range). */
    static constexpr int kOctaves = 40;
    /** Bucket 0 is the underflow bucket for values < kMinMs. */
    static constexpr int kBuckets = 1 + kOctaves * kSub;

    LatencyHistogram() = default;
    LatencyHistogram(const LatencyHistogram &) = delete;
    LatencyHistogram &operator=(const LatencyHistogram &) = delete;

    /** Bucket index for @p ms; monotone in ms. */
    static int bucketFor(double ms);

    /** Inclusive-lower bound of bucket @p b in milliseconds. */
    static double bucketLoMs(int b);

    /** Exclusive-upper bound of bucket @p b in milliseconds. */
    static double bucketHiMs(int b);

    /** Reported representative (midpoint) of bucket @p b. */
    static double bucketMidMs(int b);

    /**
     * Record one latency. Wait-free: two relaxed fetch_adds and a
     * bounded CAS-max. Negative and NaN inputs clamp to 0 (the
     * underflow bucket).
     */
    void record(double ms);

    /** Relaxed sweep of the counters; safe against record(). */
    HistogramSnapshot snapshot() const;

  private:
    std::atomic<std::uint64_t> counts_[kBuckets] = {};
    /** Sum in nanoseconds (exact to 0.5 ns per sample). */
    std::atomic<std::uint64_t> sumNanos_{0};
    /** Bit pattern of the largest recorded value (exact max). */
    std::atomic<std::uint64_t> maxBits_{0};
};

} // namespace obs
} // namespace dms

#endif // DMS_OBS_HISTOGRAM_H
