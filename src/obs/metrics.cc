#include "obs/metrics.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <unordered_set>

#include "support/diag.h"
#include "support/strings.h"

namespace dms {
namespace obs {

namespace {

/** Strict full-consumption finite double parse. */
bool
parseF64(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (errno != 0 || end != s.c_str() + s.size())
        return false;
    if (!(v == v) || v - v != 0.0) // NaN / infinity
        return false;
    out = v;
    return true;
}

std::string
fmtF64(double v)
{
    return strfmt("%.17g", v);
}

} // namespace

void
MetricsSnapshot::addCounter(std::string name, std::uint64_t value)
{
    counters.push_back({std::move(name), value});
}

void
MetricsSnapshot::addGauge(std::string name, double value)
{
    gauges.push_back({std::move(name), value});
}

void
MetricsSnapshot::addHistogram(std::string name,
                              HistogramSnapshot hist)
{
    histograms.push_back({std::move(name), std::move(hist)});
}

void
MetricsSnapshot::sortByName()
{
    auto byName = [](const auto &a, const auto &b) {
        return a.name < b.name;
    };
    std::sort(counters.begin(), counters.end(), byName);
    std::sort(gauges.begin(), gauges.end(), byName);
    std::sort(histograms.begin(), histograms.end(), byName);
}

const MetricsSnapshot::CounterValue *
MetricsSnapshot::findCounter(const std::string &name) const
{
    for (const CounterValue &c : counters)
        if (c.name == name)
            return &c;
    return nullptr;
}

const MetricsSnapshot::GaugeValue *
MetricsSnapshot::findGauge(const std::string &name) const
{
    for (const GaugeValue &g : gauges)
        if (g.name == name)
            return &g;
    return nullptr;
}

const MetricsSnapshot::HistogramValue *
MetricsSnapshot::findHistogram(const std::string &name) const
{
    for (const HistogramValue &h : histograms)
        if (h.name == name)
            return &h;
    return nullptr;
}

std::string
metricsToText(const MetricsSnapshot &snapshot)
{
    MetricsSnapshot sorted = snapshot;
    sorted.sortByName();
    std::string out = "dmsmetrics v1\n";
    for (const auto &c : sorted.counters) {
        out += strfmt("counter %s %llu\n", c.name.c_str(),
                      static_cast<unsigned long long>(c.value));
    }
    for (const auto &g : sorted.gauges) {
        out += strfmt("gauge %s %s\n", g.name.c_str(),
                      fmtF64(g.value).c_str());
    }
    for (const auto &h : sorted.histograms) {
        out += strfmt("histogram %s count=%llu sum=%s max=%s "
                      "buckets=",
                      h.name.c_str(),
                      static_cast<unsigned long long>(h.hist.count),
                      fmtF64(h.hist.sumMs).c_str(),
                      fmtF64(h.hist.maxMs).c_str());
        bool first = true;
        for (const auto &bc : h.hist.buckets) {
            if (!first)
                out += ',';
            first = false;
            out += strfmt(
                "%d:%llu", bc.first,
                static_cast<unsigned long long>(bc.second));
        }
        out += '\n';
    }
    return out;
}

namespace {

bool
parseHistogramFields(const std::vector<std::string> &fields,
                     size_t from, HistogramSnapshot &hist,
                     std::string &why)
{
    bool sawCount = false;
    bool sawSum = false;
    bool sawMax = false;
    bool sawBuckets = false;
    for (size_t f = from; f < fields.size(); ++f) {
        const std::string &field = fields[f];
        const size_t eq = field.find('=');
        if (eq == std::string::npos) {
            why = strfmt("want key=value, got '%s'",
                         field.c_str());
            return false;
        }
        const std::string key = field.substr(0, eq);
        const std::string value = field.substr(eq + 1);
        if (key == "count") {
            if (sawCount || !parseU64(value, hist.count)) {
                why = strfmt("bad count '%s'", value.c_str());
                return false;
            }
            sawCount = true;
        } else if (key == "sum") {
            if (sawSum || !parseF64(value, hist.sumMs)) {
                why = strfmt("bad sum '%s'", value.c_str());
                return false;
            }
            sawSum = true;
        } else if (key == "max") {
            if (sawMax || !parseF64(value, hist.maxMs)) {
                why = strfmt("bad max '%s'", value.c_str());
                return false;
            }
            sawMax = true;
        } else if (key == "buckets") {
            if (sawBuckets) {
                why = "duplicate buckets field";
                return false;
            }
            sawBuckets = true;
            if (value.empty())
                continue; // empty histogram
            for (const std::string &pair : split(value, ',')) {
                const size_t colon = pair.find(':');
                int bucket = 0;
                std::uint64_t bcount = 0;
                if (colon == std::string::npos ||
                    !parseInt(pair.substr(0, colon), bucket) ||
                    !parseU64(pair.substr(colon + 1), bcount)) {
                    why = strfmt("bad bucket pair '%s'",
                                 pair.c_str());
                    return false;
                }
                if (bucket < 0 ||
                    bucket >= LatencyHistogram::kBuckets) {
                    why = strfmt("bucket %d outside [0, %d)", bucket,
                                 LatencyHistogram::kBuckets);
                    return false;
                }
                if (!hist.buckets.empty() &&
                    hist.buckets.back().first >= bucket) {
                    why = strfmt(
                        "bucket %d out of order", bucket);
                    return false;
                }
                hist.buckets.emplace_back(bucket, bcount);
            }
        } else {
            why = strfmt("unknown histogram field '%s'",
                         key.c_str());
            return false;
        }
    }
    if (!sawCount || !sawSum || !sawMax || !sawBuckets) {
        why = "missing count/sum/max/buckets field";
        return false;
    }
    return true;
}

} // namespace

bool
metricsFromText(const std::string &text, MetricsSnapshot &snapshot,
                std::string &error)
{
    MetricsSnapshot parsed;
    std::unordered_set<std::string> seen;
    const std::vector<std::string> lines = split(text, '\n');
    size_t i = 0;
    while (i < lines.size() && trim(lines[i]).empty())
        ++i;
    if (i >= lines.size() || trim(lines[i]) != "dmsmetrics v1") {
        error = "missing 'dmsmetrics v1' header";
        return false;
    }
    int lineno = static_cast<int>(i) + 1;
    for (++i; i < lines.size(); ++i) {
        ++lineno;
        const std::string line = trim(lines[i]);
        if (line.empty() || line[0] == '#')
            continue;
        std::vector<std::string> fields;
        for (const std::string &f : split(line, ' '))
            if (!f.empty())
                fields.push_back(f);
        if (fields.size() < 3) {
            error = strfmt("line %d: want 'kind name value...'",
                           lineno);
            return false;
        }
        const std::string &kind = fields[0];
        const std::string &name = fields[1];
        // One line per metric: a repeated name would let a second
        // value hide behind the first one find*() returns.
        if (!seen.insert(name).second) {
            error = strfmt("line %d: metric '%s' given twice",
                           lineno, name.c_str());
            return false;
        }
        if (kind == "counter") {
            std::uint64_t v = 0;
            if (fields.size() != 3 || !parseU64(fields[2], v)) {
                error = strfmt(
                    "line %d: bad counter value for '%s'", lineno,
                    name.c_str());
                return false;
            }
            parsed.addCounter(name, v);
        } else if (kind == "gauge") {
            double v = 0;
            if (fields.size() != 3 || !parseF64(fields[2], v)) {
                error =
                    strfmt("line %d: bad gauge value for '%s'",
                           lineno, name.c_str());
                return false;
            }
            parsed.addGauge(name, v);
        } else if (kind == "histogram") {
            HistogramSnapshot hist;
            std::string why;
            if (!parseHistogramFields(fields, 2, hist, why)) {
                error = strfmt("line %d: %s", lineno,
                               why.c_str());
                return false;
            }
            parsed.addHistogram(name, std::move(hist));
        } else {
            error = strfmt("line %d: unknown kind '%s'", lineno,
                           kind.c_str());
            return false;
        }
    }
    snapshot = std::move(parsed);
    return true;
}

} // namespace obs
} // namespace dms
