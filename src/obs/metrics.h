#ifndef DMS_OBS_METRICS_H
#define DMS_OBS_METRICS_H

/**
 * @file
 * Metrics: counters and latency histograms behind one canonical
 * text format ("dmsmetrics v1") — the serving tier's one telemetry
 * format, served by the `metrics` wire verb and written by
 * `dmsd --metrics-out`.
 *
 * Each component owns its cells as plain members and appends them
 * to its snapshot by name (addCounter, addHistogram): the compile
 * service its serve.* cells, NetServer its net.* cells on top.
 * A Counter::inc is one relaxed fetch_add, a histogram record one
 * wait-free LatencyHistogram::record; no mutex on a hot path.
 * Gauges are not live cells: a snapshot's owner derives them when
 * it is taken (addGauge).
 *
 * Text format (strict parse, versioned header, "line N:" errors):
 *
 *     dmsmetrics v1
 *     counter serve.requests 128
 *     gauge serve.queue_depth 3
 *     histogram serve.latency_ms count=128 sum=512.25 max=9.5 \
 *         buckets=161:3,162:125
 *
 * (The histogram line is one physical line; buckets are
 * index:count pairs of the non-empty LatencyHistogram buckets.)
 * Doubles print as %.17g so metricsToText(metricsFromText(t)) is
 * byte-identical for canonical @p t. dmslint's
 * obs.metrics-consistency checker audits the conservation laws
 * (per-histogram sum(buckets) == count, latency samples never
 * exceeding serve.requests) and the serve/net accounting
 * identities.
 */

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/histogram.h"

namespace dms {
namespace obs {

/** Monotone event counter; inc() is one relaxed fetch_add. */
class Counter
{
  public:
    void
    inc(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Plain-data copy of a component's cells, sorted by name. */
struct MetricsSnapshot
{
    struct CounterValue
    {
        std::string name;
        std::uint64_t value = 0;
    };
    struct GaugeValue
    {
        std::string name;
        double value = 0.0;
    };
    struct HistogramValue
    {
        std::string name;
        HistogramSnapshot hist;
    };

    std::vector<CounterValue> counters;
    std::vector<GaugeValue> gauges;
    std::vector<HistogramValue> histograms;

    /** Append helpers for derived values (cache, fault, net). */
    void addCounter(std::string name, std::uint64_t value);
    void addGauge(std::string name, double value);
    void addHistogram(std::string name, HistogramSnapshot hist);

    /** Sort every section by name (the canonical order). */
    void sortByName();

    /** Pointer into counters by name; null when absent. */
    const CounterValue *findCounter(const std::string &name) const;
    const GaugeValue *findGauge(const std::string &name) const;
    const HistogramValue *
    findHistogram(const std::string &name) const;
};

/** Serialize into the canonical "dmsmetrics v1" text format. */
std::string metricsToText(const MetricsSnapshot &snapshot);

/**
 * Parse the text format back. Unknown kinds, malformed values, a
 * metric name given twice, duplicate histogram fields, bucket
 * indices outside LatencyHistogram's range and a missing header
 * are errors with @p error carrying a "line N: ..." message.
 */
bool metricsFromText(const std::string &text,
                     MetricsSnapshot &snapshot, std::string &error);

} // namespace obs
} // namespace dms

#endif // DMS_OBS_METRICS_H
