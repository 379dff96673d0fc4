/**
 * @file
 * Lint of the observability artifacts: `dmsmetrics v1` snapshots
 * (obs/metrics.h) and trace_event span exports (obs/trace.h). Like
 * every checker family, the audits re-derive their invariants from
 * first principles — summing histogram buckets instead of trusting
 * the count field, re-deriving the service's accounting identities
 * from which submit outcomes exist, re-walking the span tree
 * instead of trusting the writer's nesting — so a bookkeeping bug
 * in the service, the metrics writer or the tracer cannot
 * certify its own output. Locations carry the 1-based line of the
 * offending metric line / span event when the text is available.
 */

#include <cmath>

#include "analysis/builtin_checks.h"
#include "analysis/lint_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/diag.h"
#include "support/strings.h"

namespace dms {
namespace lint {

namespace {

/**
 * 1-based line of metric @p name in the dmsmetrics text: the line
 * whose *second* token is the name (the first is the kind). 0 when
 * unknown. findNthKeyLine keys on the first token, which here is
 * just "counter"/"gauge"/"histogram" — hence the local walk.
 */
int
metricLine(const std::string *text, const std::string &name)
{
    if (text == nullptr)
        return 0;
    int line_no = 0;
    for (const std::string &line : split(*text, '\n')) {
        ++line_no;
        std::vector<std::string> tokens;
        for (const std::string &t : split(trim(line), ' ')) {
            if (!t.empty())
                tokens.push_back(t);
        }
        if (tokens.size() >= 2 && tokens[1] == name)
            return line_no;
    }
    return 0;
}

/**
 * Reads the metrics an accounting identity names and records
 * whether each was present. A snapshot is audited for what it
 * carries: an identity is checked only when complete().
 */
class IdentityInputs
{
  public:
    explicit IdentityInputs(const obs::MetricsSnapshot &snapshot)
        : snapshot_(snapshot)
    {
    }

    std::uint64_t
    counter(const char *name)
    {
        const auto *c = snapshot_.findCounter(name);
        complete_ = complete_ && c != nullptr;
        return c != nullptr ? c->value : 0;
    }

    double
    gauge(const char *name)
    {
        const auto *g = snapshot_.findGauge(name);
        complete_ = complete_ && g != nullptr;
        return g != nullptr ? g->value : 0.0;
    }

    bool complete() const { return complete_; }

  private:
    const obs::MetricsSnapshot &snapshot_;
    bool complete_ = true;
};

class MetricsConsistencyCheck final : public BuiltinCheck
{
  public:
    MetricsConsistencyCheck()
        : BuiltinCheck("obs.metrics-consistency",
                       "metrics snapshot satisfies the histogram "
                       "conservation laws and counter identities",
                       ArtifactKind::Metrics)
    {
    }

    bool
    applicable(const AnalysisInput &input) const override
    {
        return input.metrics != nullptr ||
               input.metricsText != nullptr;
    }

    void
    run(const AnalysisInput &input, DiagnosticSink &sink) const
        override
    {
        obs::MetricsSnapshot parsed;
        const obs::MetricsSnapshot *metrics = input.metrics;
        if (metrics == nullptr) {
            std::string error;
            if (!obs::metricsFromText(*input.metricsText, parsed,
                                      error)) {
                DiagLocation loc;
                std::string message;
                loc.line = splitErrorLine(error, message);
                sink.report(id(), Severity::Error, artifact(), loc,
                            message);
                return;
            }
            metrics = &parsed;
        }
        auto flag = [&](const std::string &name,
                        std::string message) {
            DiagLocation loc;
            loc.line = metricLine(input.metricsText, name);
            sink.report(id(), Severity::Error, artifact(), loc,
                        std::move(message));
        };

        // Conservation: a histogram's count field is the number of
        // recorded samples, and every sample lands in exactly one
        // bucket — the bucket counts must sum to it. A non-empty
        // histogram also carries a positive max.
        for (const auto &h : metrics->histograms) {
            std::uint64_t in_buckets = 0;
            for (const auto &bucket : h.hist.buckets)
                in_buckets += bucket.second;
            if (in_buckets != h.hist.count)
                flag(h.name,
                     strfmt("histogram '%s' count %llu but its "
                            "buckets hold %llu samples",
                            h.name.c_str(),
                            static_cast<unsigned long long>(
                                h.hist.count),
                            static_cast<unsigned long long>(
                                in_buckets)));
            if (h.hist.count == 0 &&
                (h.hist.sumMs != 0.0 || h.hist.maxMs != 0.0))
                flag(h.name,
                     strfmt("histogram '%s' has zero samples but "
                            "sum %.17g / max %.17g",
                            h.name.c_str(), h.hist.sumMs,
                            h.hist.maxMs));
        }

        // A latency sample exists per resolved request: the serve
        // histogram can never hold more samples than requests were
        // ever made (the snapshot reads the histogram first, so a
        // torn concurrent snapshot errs in the safe direction).
        const auto *requests =
            metrics->findCounter("serve.requests");
        const auto *latency =
            metrics->findHistogram("serve.latency_ms");
        if (requests != nullptr && latency != nullptr &&
            latency->hist.count > requests->value)
            flag("serve.latency_ms",
                 strfmt("serve.latency_ms holds %llu samples but "
                        "only %llu requests were made",
                        static_cast<unsigned long long>(
                            latency->hist.count),
                        static_cast<unsigned long long>(
                            requests->value)));

        // Fault-injection pairs: a site only fires on a hit.
        for (const auto &c : metrics->counters) {
            const std::string suffix = ".fired";
            if (c.name.size() <= suffix.size() ||
                c.name.compare(c.name.size() - suffix.size(),
                               suffix.size(), suffix) != 0)
                continue;
            const std::string hits_name =
                c.name.substr(0, c.name.size() - suffix.size()) +
                ".hits";
            const auto *hits = metrics->findCounter(hits_name);
            if (hits != nullptr && c.value > hits->value)
                flag(c.name,
                     strfmt("%s %llu exceeds %s %llu",
                            c.name.c_str(),
                            static_cast<unsigned long long>(
                                c.value),
                            hits_name.c_str(),
                            static_cast<unsigned long long>(
                                hits->value)));
        }

        // Submit accounting. Every submit reaches at most one
        // exclusive outcome: hit, coalesced, miss (queued — or
        // shed after counting as a miss), invalid or quarantined.
        // A submit-path fault can bypass them all and surface as a
        // Failed/Expired resolution instead, so the outcomes may
        // undershoot requests — but never by more than failed +
        // expired, and never overshoot.
        IdentityInputs serve(*metrics);
        const std::uint64_t submitted =
            serve.counter("serve.requests");
        const std::uint64_t misses = serve.counter("serve.misses");
        const std::uint64_t outcomes =
            serve.counter("serve.hits") +
            serve.counter("serve.coalesced") + misses +
            serve.counter("serve.invalid") +
            serve.counter("serve.quarantined");
        const std::uint64_t failed = serve.counter("serve.failed");
        const std::uint64_t expired = serve.counter("serve.expired");
        const std::uint64_t shed = serve.counter("serve.shed");
        if (serve.complete()) {
            if (outcomes > submitted)
                flag("serve.requests",
                     strfmt("submit outcomes sum to %llu but only "
                            "%llu requests were made",
                            static_cast<unsigned long long>(
                                outcomes),
                            static_cast<unsigned long long>(
                                submitted)));
            else if (submitted - outcomes > failed + expired)
                flag("serve.requests",
                     strfmt("%llu requests have no recorded "
                            "outcome (outcomes %llu + failed %llu + "
                            "expired %llu cannot cover them)",
                            static_cast<unsigned long long>(
                                submitted - outcomes),
                            static_cast<unsigned long long>(
                                outcomes),
                            static_cast<unsigned long long>(failed),
                            static_cast<unsigned long long>(
                                expired)));
            // Shedding happens after the miss was counted: every
            // shed request is a subset of the misses.
            if (shed > misses)
                flag("serve.shed",
                     strfmt("shed %llu exceeds misses %llu, but a "
                            "request is only shed after counting "
                            "as a miss",
                            static_cast<unsigned long long>(shed),
                            static_cast<unsigned long long>(
                                misses)));
        }

        // The queue never holds more than its configured bound, and
        // its high-water mark covers the current depth.
        IdentityInputs queue(*metrics);
        const double depth = queue.gauge("serve.queue_depth");
        const double peak = queue.gauge("serve.queue_depth_peak");
        const double capacity = queue.gauge("serve.queue_capacity");
        if (queue.complete()) {
            if (capacity > 0 && peak > capacity)
                flag("serve.queue_depth_peak",
                     strfmt("peak queue depth %g exceeds the "
                            "configured capacity %g",
                            peak, capacity));
            if (depth > peak)
                flag("serve.queue_depth",
                     strfmt("current queue depth %g exceeds the "
                            "recorded peak %g",
                            depth, peak));
        }

        // Network identities. Every framing reject is both a
        // counted request line and routed through the service as
        // an unparseable (invalid) request. Request lines only
        // exist on accepted connections, and every counted line
        // was read off the wire — at least its newline byte is in
        // net.bytes_in.
        IdentityInputs net(*metrics);
        const std::uint64_t rejects =
            net.counter("net.framing_rejects");
        const std::uint64_t lines = net.counter("net.requests");
        const std::uint64_t connections =
            net.counter("net.connections");
        const std::uint64_t bytes_in = net.counter("net.bytes_in");
        const std::uint64_t invalid = net.counter("serve.invalid");
        if (net.complete()) {
            if (rejects > lines)
                flag("net.framing_rejects",
                     strfmt("framing rejects %llu exceed request "
                            "lines %llu",
                            static_cast<unsigned long long>(rejects),
                            static_cast<unsigned long long>(lines)));
            if (rejects > invalid)
                flag("net.framing_rejects",
                     strfmt("framing rejects %llu exceed invalid "
                            "requests %llu, but every framing "
                            "reject is submitted as an invalid "
                            "request",
                            static_cast<unsigned long long>(rejects),
                            static_cast<unsigned long long>(
                                invalid)));
            if (lines > 0 && connections == 0)
                flag("net.requests",
                     strfmt("%llu request lines arrived over zero "
                            "connections",
                            static_cast<unsigned long long>(lines)));
            if (bytes_in < lines)
                flag("net.bytes_in",
                     strfmt("net bytes in %llu is below the request "
                            "line count %llu (every line carries at "
                            "least its newline)",
                            static_cast<unsigned long long>(
                                bytes_in),
                            static_cast<unsigned long long>(lines)));
        }
    }
};

class TraceNestingCheck final : public BuiltinCheck
{
  public:
    TraceNestingCheck()
        : BuiltinCheck("obs.trace-nesting",
                       "trace spans form properly nested trees "
                       "with children inside their parents",
                       ArtifactKind::Trace)
    {
    }

    bool
    applicable(const AnalysisInput &input) const override
    {
        return input.traceSpans != nullptr ||
               input.traceText != nullptr;
    }

    void
    run(const AnalysisInput &input, DiagnosticSink &sink) const
        override
    {
        std::vector<std::vector<obs::TraceSpan>> parsed;
        const std::vector<std::vector<obs::TraceSpan>> *traces =
            input.traceSpans;
        if (traces == nullptr) {
            std::string error;
            if (!obs::tracesFromJson(*input.traceText, parsed,
                                     error)) {
                DiagLocation loc;
                std::string message;
                loc.line = splitErrorLine(error, message);
                sink.report(id(), Severity::Error, artifact(), loc,
                            message);
                return;
            }
            traces = &parsed;
        }

        // Span intervals print with microsecond precision to three
        // decimals; two independently rounded endpoints can
        // disagree by one printed unit.
        const double eps = 0.002;

        int tid = 0;
        for (const std::vector<obs::TraceSpan> &spans : *traces) {
            ++tid;
            for (size_t i = 0; i < spans.size(); ++i) {
                const obs::TraceSpan &span = spans[i];
                auto flag = [&](std::string message) {
                    DiagLocation loc;
                    loc.line = span.srcLine;
                    sink.report(id(), Severity::Error, artifact(),
                                loc, std::move(message));
                };
                if (span.durUs < 0.0) {
                    flag(strfmt("trace %d span %zu '%s' has "
                                "negative duration %.3f us",
                                tid, i, span.name.c_str(),
                                span.durUs));
                    continue;
                }
                if (span.parent < 0)
                    continue;
                // Span ids are open order: a parent is always
                // opened — and therefore indexed — before any of
                // its children.
                if (static_cast<size_t>(span.parent) >= i) {
                    flag(strfmt("trace %d span %zu '%s' claims "
                                "parent %d, which is not an "
                                "earlier span",
                                tid, i, span.name.c_str(),
                                span.parent));
                    continue;
                }
                const obs::TraceSpan &parent =
                    spans[static_cast<size_t>(span.parent)];
                const double child_end = span.startUs + span.durUs;
                const double parent_end =
                    parent.startUs + parent.durUs;
                if (span.startUs + eps < parent.startUs ||
                    child_end > parent_end + eps)
                    flag(strfmt(
                        "trace %d span %zu '%s' [%.3f, %.3f] "
                        "escapes its parent '%s' [%.3f, %.3f]",
                        tid, i, span.name.c_str(), span.startUs,
                        child_end, parent.name.c_str(),
                        parent.startUs, parent_end));
            }
        }
    }
};

} // namespace

void
registerObsChecks(CheckRegistry &registry)
{
    registry.add(std::make_unique<MetricsConsistencyCheck>());
    registry.add(std::make_unique<TraceNestingCheck>());
}

} // namespace lint
} // namespace dms
