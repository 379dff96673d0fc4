#include "obs/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace dms {
namespace obs {

namespace {

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

double
doubleOf(std::uint64_t bits)
{
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

} // namespace

double
HistogramSnapshot::mean() const
{
    return count == 0 ? 0.0
                      : sumMs / static_cast<double>(count);
}

double
HistogramSnapshot::percentile(double p) const
{
    if (count == 0)
        return 0.0;
    p = std::min(std::max(p, 0.0), 100.0);
    // Nearest rank: the ceil(p/100 * n)-th smallest, 1-based.
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(count)));
    rank = std::max<std::uint64_t>(rank, 1);
    std::uint64_t seen = 0;
    for (const auto &bc : buckets) {
        seen += bc.second;
        if (seen >= rank)
            return LatencyHistogram::bucketMidMs(bc.first);
    }
    return LatencyHistogram::bucketMidMs(buckets.back().first);
}

void
HistogramSnapshot::merge(const HistogramSnapshot &other)
{
    count += other.count;
    sumMs += other.sumMs;
    maxMs = std::max(maxMs, other.maxMs);
    std::vector<std::pair<int, std::uint64_t>> merged;
    merged.reserve(buckets.size() + other.buckets.size());
    size_t i = 0;
    size_t j = 0;
    while (i < buckets.size() || j < other.buckets.size()) {
        if (j >= other.buckets.size() ||
            (i < buckets.size() &&
             buckets[i].first < other.buckets[j].first)) {
            merged.push_back(buckets[i++]);
        } else if (i >= buckets.size() ||
                   other.buckets[j].first < buckets[i].first) {
            merged.push_back(other.buckets[j++]);
        } else {
            merged.emplace_back(buckets[i].first,
                                buckets[i].second +
                                    other.buckets[j].second);
            ++i;
            ++j;
        }
    }
    buckets = std::move(merged);
}

int
LatencyHistogram::bucketFor(double ms)
{
    // NaN and negatives fail this comparison and join the
    // underflow bucket alongside genuine sub-kMinMs values.
    if (!(ms >= kMinMs))
        return 0;
    const double r = ms / kMinMs;
    int e = std::ilogb(r); // floor(log2(r)); r >= 1 so e >= 0
    if (e >= kOctaves)
        return kBuckets - 1;
    // Top kSubBits mantissa bits select the linear sub-bucket.
    const double frac = std::ldexp(r, -e) - 1.0; // [0, 1)
    int sub = static_cast<int>(frac * kSub);
    sub = std::min(std::max(sub, 0), kSub - 1);
    return 1 + e * kSub + sub;
}

double
LatencyHistogram::bucketLoMs(int b)
{
    if (b <= 0)
        return 0.0;
    const int e = (b - 1) / kSub;
    const int s = (b - 1) % kSub;
    return kMinMs * std::ldexp(1.0, e) *
           (1.0 + static_cast<double>(s) / kSub);
}

double
LatencyHistogram::bucketHiMs(int b)
{
    if (b <= 0)
        return kMinMs;
    const int e = (b - 1) / kSub;
    const int s = (b - 1) % kSub;
    return kMinMs * std::ldexp(1.0, e) *
           (1.0 + static_cast<double>(s + 1) / kSub);
}

double
LatencyHistogram::bucketMidMs(int b)
{
    return 0.5 * (bucketLoMs(b) + bucketHiMs(b));
}

void
LatencyHistogram::record(double ms)
{
    if (!(ms >= 0.0))
        ms = 0.0;
    counts_[bucketFor(ms)].fetch_add(1, std::memory_order_relaxed);
    sumNanos_.fetch_add(
        static_cast<std::uint64_t>(std::llround(ms * 1e6)),
        std::memory_order_relaxed);
    // CAS-max over the bit pattern: non-negative doubles order
    // exactly like their unsigned bit patterns, so max stays exact
    // without a lock.
    const std::uint64_t bits = bitsOf(ms);
    std::uint64_t cur = maxBits_.load(std::memory_order_relaxed);
    while (bits > cur &&
           !maxBits_.compare_exchange_weak(
               cur, bits, std::memory_order_relaxed)) {
    }
}

HistogramSnapshot
LatencyHistogram::snapshot() const
{
    HistogramSnapshot snap;
    for (int b = 0; b < kBuckets; ++b) {
        const std::uint64_t c =
            counts_[b].load(std::memory_order_relaxed);
        if (c == 0)
            continue;
        snap.buckets.emplace_back(b, c);
        snap.count += c;
    }
    snap.sumMs = static_cast<double>(sumNanos_.load(
                     std::memory_order_relaxed)) /
                 1e6;
    snap.maxMs =
        doubleOf(maxBits_.load(std::memory_order_relaxed));
    return snap;
}

} // namespace obs
} // namespace dms
