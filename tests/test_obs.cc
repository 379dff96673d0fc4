/**
 * @file
 * Observability tests: the lock-free latency histogram against the
 * exact nearest-rank Samples store (the ≤5% relative-error bound,
 * exact count and max, snapshot merge), the canonical metrics text
 * round trip and its strict parser, span trees and their JSON
 * round trip, the bounded TraceLog, and the determinism pins — an
 * armed tracer records the same span tree for the same request,
 * and a disarmed tracer records nothing at all.
 */

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analyze.h"
#include "machine/desc.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "requests.h"
#include "samples.h"
#include "serve/net.h"
#include "serve/service.h"
#include "support/rng.h"
#include "workload/text.h"

namespace dms {
namespace {

using obs::HistogramSnapshot;
using obs::LatencyHistogram;

/**
 * The documented error bound: a sub-bucket spans 1/16 of an
 * octave, so the bucket midpoint is within 1/(2*16) = 3.125% of
 * any sample in the bucket. The histogram advertises ≤5%.
 */
constexpr double kRelErrBound = 0.05;

void
expectPercentilesWithinBound(const std::vector<double> &samples_ms)
{
    LatencyHistogram hist;
    Samples exact;
    for (double v : samples_ms) {
        hist.record(v);
        exact.add(v);
    }
    const HistogramSnapshot snap = hist.snapshot();

    // Count and max are exact, never sketched.
    EXPECT_EQ(snap.count, exact.count());
    EXPECT_DOUBLE_EQ(snap.maxMs, exact.max());

    // Conservation: every sample is in exactly one bucket.
    std::uint64_t in_buckets = 0;
    for (const auto &b : snap.buckets)
        in_buckets += b.second;
    EXPECT_EQ(in_buckets, snap.count);

    for (double p : {50.0, 90.0, 99.0}) {
        const double want = exact.percentile(p);
        const double got = snap.percentile(p);
        ASSERT_GT(want, 0.0);
        EXPECT_LE(std::abs(got - want) / want, kRelErrBound)
            << "p" << p << ": exact " << want << " histogram "
            << got;
    }
}

TEST(LatencyHistogram, UniformWorkloadWithinBound)
{
    Rng rng(0x9d5u);
    std::vector<double> samples;
    for (int i = 0; i < 20000; ++i)
        samples.push_back(0.01 + rng.uniform() * 9.99);
    expectPercentilesWithinBound(samples);
}

TEST(LatencyHistogram, ZipfSkewedWorkloadWithinBound)
{
    // A cache-like mix: most requests land in a tight hit band,
    // a heavy tail compiles for milliseconds.
    Rng rng(0x51bfu);
    std::vector<double> samples;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        if (u < 0.8)
            samples.push_back(0.004 + rng.uniform() * 0.01);
        else
            samples.push_back(
                1.0 / (0.01 + rng.uniform())); // ~[1, 100] ms
    }
    expectPercentilesWithinBound(samples);
}

TEST(LatencyHistogram, BimodalWorkloadWithinBound)
{
    Rng rng(0xb1d0u);
    std::vector<double> samples;
    for (int i = 0; i < 20000; ++i) {
        if (rng.chance(0.5))
            samples.push_back(0.05 * (1.0 + 0.2 * rng.uniform()));
        else
            samples.push_back(5.0 * (1.0 + 0.2 * rng.uniform()));
    }
    expectPercentilesWithinBound(samples);
}

TEST(LatencyHistogram, BucketBoundsContainTheirValues)
{
    Rng rng(0xfeedu);
    for (int i = 0; i < 5000; ++i) {
        const double v = std::exp(rng.uniform() * 18.0 - 6.0);
        const int b = LatencyHistogram::bucketFor(v);
        ASSERT_GE(b, 0);
        ASSERT_LT(b, LatencyHistogram::kBuckets);
        if (b == 0 || b == LatencyHistogram::kBuckets - 1)
            continue; // under/overflow buckets clamp
        EXPECT_LE(LatencyHistogram::bucketLoMs(b), v);
        EXPECT_GT(LatencyHistogram::bucketHiMs(b), v);
    }
}

TEST(LatencyHistogram, SnapshotMergeMatchesCombinedRecording)
{
    Rng rng(0x31337u);
    LatencyHistogram a, b, both;
    for (int i = 0; i < 4000; ++i) {
        const double v = 0.002 + rng.uniform() * 20.0;
        (i % 2 == 0 ? a : b).record(v);
        both.record(v);
    }
    HistogramSnapshot merged = a.snapshot();
    merged.merge(b.snapshot());
    const HistogramSnapshot want = both.snapshot();
    EXPECT_EQ(merged.count, want.count);
    EXPECT_DOUBLE_EQ(merged.maxMs, want.maxMs);
    EXPECT_EQ(merged.buckets, want.buckets);
    EXPECT_DOUBLE_EQ(merged.percentile(99), want.percentile(99));
}

// --- metrics text ------------------------------------------------------

TEST(Metrics, TextRoundTripIsByteIdentical)
{
    obs::LatencyHistogram h;
    Rng rng(0xabcu);
    for (int i = 0; i < 300; ++i)
        h.record(0.01 + rng.uniform() * 4.0);

    obs::MetricsSnapshot snap;
    snap.addHistogram("serve.latency_ms", h.snapshot());
    snap.addCounter("serve.requests", 341);
    snap.addCounter("serve.hits", 7);
    snap.addGauge("serve.queue_depth", 3.5);
    const std::string text = obs::metricsToText(snap);
    obs::MetricsSnapshot parsed;
    std::string error;
    ASSERT_TRUE(obs::metricsFromText(text, parsed, error))
        << error;
    EXPECT_EQ(obs::metricsToText(parsed), text);

    const auto *req = parsed.findCounter("serve.requests");
    ASSERT_NE(req, nullptr);
    EXPECT_EQ(req->value, 341u);
    const auto *lat = parsed.findHistogram("serve.latency_ms");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->hist.count, 300u);

    // The canonical snapshot lints clean.
    DiagnosticSink sink;
    lintMetricsText(text, "unit.metrics", sink);
    EXPECT_TRUE(sink.empty()) << sink.renderText();
}

TEST(Metrics, ParserRejectsMalformedText)
{
    obs::MetricsSnapshot out;
    std::string error;
    EXPECT_FALSE(obs::metricsFromText("counter a 1\n", out, error));
    EXPECT_NE(error.find("header"), std::string::npos);
    EXPECT_FALSE(obs::metricsFromText(
        "dmsmetrics v1\ncounter serve.requests -3\n", out, error));
    EXPECT_FALSE(obs::metricsFromText(
        "dmsmetrics v1\nblorb x 1\n", out, error));
    EXPECT_NE(error.find("line 2"), std::string::npos);
    EXPECT_FALSE(obs::metricsFromText(
        "dmsmetrics v1\nhistogram h count=1 sum=1 max=1 "
        "buckets=5:1,3:2\n",
        out, error));
    // A repeated name would hide its second value behind the
    // first one findCounter() returns.
    EXPECT_FALSE(obs::metricsFromText(
        "dmsmetrics v1\ncounter serve.requests 10\n"
        "counter serve.requests 3\n",
        out, error));
    EXPECT_NE(error.find("line 3"), std::string::npos) << error;
    // LatencyHistogram has kBuckets buckets; no index past them.
    EXPECT_FALSE(obs::metricsFromText(
        "dmsmetrics v1\nhistogram serve.latency_ms count=5 sum=1 "
        "max=1 buckets=99999:5\n",
        out, error));
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
    // Unsigned fields take digits only: a sign behind whitespace
    // must not wrap to 2^64 - 5, and 2^64 itself overflows.
    const char *badUnsigned[] = {
        "counter serve.requests \t-5",
        "counter serve.requests +5",
        "counter serve.requests 18446744073709551616",
        "histogram h count=\t-1 sum=1 max=1 buckets=",
        "histogram h count=1 sum=1 max=1 buckets=161:\t-1",
    };
    for (const char *line : badUnsigned) {
        EXPECT_FALSE(obs::metricsFromText(
            std::string("dmsmetrics v1\n") + line + "\n", out, error))
            << line;
        EXPECT_NE(error.find("line 2"), std::string::npos) << line;
    }
    ASSERT_TRUE(obs::metricsFromText(
        "dmsmetrics v1\ncounter serve.requests 18446744073709551615\n",
        out, error))
        << error;
    const auto *max = out.findCounter("serve.requests");
    ASSERT_NE(max, nullptr);
    EXPECT_EQ(max->value, 18446744073709551615ULL);
}

// --- traces ------------------------------------------------------------

TEST(Trace, SpanTreeAndJsonRoundTrip)
{
    auto trace = std::make_shared<obs::Trace>();
    const int root = trace->openSpan("request");
    {
        obs::ScopedSpan compile(trace.get(), "compile");
        obs::ScopedSpan stage(trace.get(), "schedule");
        stage.note("ii=7");
    }
    try {
        obs::ScopedSpan failing(trace.get(), "verify");
        throw std::runtime_error("boom");
    } catch (const std::runtime_error &) {
    }
    trace->failSpan(root, "exception");
    trace->finish();

    ASSERT_EQ(trace->spans().size(), 4u);
    EXPECT_EQ(trace->spans()[0].name, "request");
    EXPECT_EQ(trace->spans()[0].parent, -1);
    EXPECT_EQ(trace->spans()[1].name, "compile");
    EXPECT_EQ(trace->spans()[1].parent, 0);
    EXPECT_EQ(trace->spans()[2].name, "schedule");
    EXPECT_EQ(trace->spans()[2].parent, 1);
    EXPECT_EQ(trace->spans()[2].note, "ii=7");
    // The unwound span and the annotated root are both failed.
    EXPECT_TRUE(trace->spans()[3].failed);
    EXPECT_TRUE(trace->spans()[0].failed);
    EXPECT_EQ(trace->spans()[0].note, "exception");

    const std::string json = obs::tracesToJson({trace});
    std::vector<std::vector<obs::TraceSpan>> parsed;
    std::string error;
    ASSERT_TRUE(obs::tracesFromJson(json, parsed, error)) << error;
    ASSERT_EQ(parsed.size(), 1u);
    ASSERT_EQ(parsed[0].size(), 4u);
    for (size_t i = 0; i < parsed[0].size(); ++i) {
        EXPECT_EQ(parsed[0][i].name, trace->spans()[i].name);
        EXPECT_EQ(parsed[0][i].parent, trace->spans()[i].parent);
        EXPECT_EQ(parsed[0][i].failed, trace->spans()[i].failed);
        EXPECT_EQ(parsed[0][i].note, trace->spans()[i].note);
    }

    // The canonical export lints clean (spans nest by
    // construction: children close before their parents).
    DiagnosticSink sink;
    lintTraceText(json, "unit.trace", sink);
    EXPECT_TRUE(sink.empty()) << sink.renderText();
}

TEST(Trace, LogIsBoundedAndCountsDrops)
{
    obs::TraceLog &log = obs::TraceLog::instance();
    log.clear();
    log.setCap(4);
    for (int i = 0; i < 9; ++i) {
        auto t = std::make_shared<obs::Trace>();
        t->openSpan("request");
        t->finish();
        log.commit(std::move(t));
    }
    EXPECT_EQ(log.traces().size(), 4u);
    EXPECT_EQ(log.dropped(), 5u);
    log.clear();
    EXPECT_TRUE(log.traces().empty());
    EXPECT_EQ(log.dropped(), 0u);
    log.setCap(256);
}

/** One fir8 compile request on the paper's 4-cluster ring. */
CompileRequest
fir8Request()
{
    Loop loop;
    std::string error;
    EXPECT_TRUE(loadLoopSpec("kernel:fir8", loop, error)) << error;
    PipelineOptions po;
    po.scheduler = "dms";
    po.regalloc = true;
    po.codegen = true;
    return makeRequest(loop, MachineModel::clusteredRing(4), po);
}

/** (name, parent) skeleton of every committed trace, in order. */
std::vector<std::vector<std::pair<std::string, int>>>
committedSkeletons()
{
    std::vector<std::vector<std::pair<std::string, int>>> out;
    for (const auto &trace : obs::TraceLog::instance().traces()) {
        std::vector<std::pair<std::string, int>> spans;
        for (const obs::TraceSpan &s : trace->spans())
            spans.emplace_back(s.name, s.parent);
        out.push_back(std::move(spans));
    }
    return out;
}

/**
 * Compile @p req on a fresh single-worker service and return the
 * committed span skeletons. The service is destroyed (workers
 * joined) before the log is read, so every commit is visible.
 */
std::vector<std::vector<std::pair<std::string, int>>>
traceOneRequest(const CompileRequest &req)
{
    obs::TraceLog::instance().clear();
    {
        ServeOptions so;
        so.workers = 1;
        CompileService service(so);
        CompileService::ResultPtr result = service.compile(req);
        EXPECT_TRUE(result->ok);
    }
    return committedSkeletons();
}

TEST(Trace, ArmedServiceRecordsTheSameSpanTreeEveryRun)
{
    obs::armTrace(256);
    const CompileRequest req = fir8Request();
    const auto first = traceOneRequest(req);
    const auto second = traceOneRequest(req);
    obs::disarmTrace();
    obs::TraceLog::instance().clear();

    ASSERT_EQ(first.size(), 1u);
    // Names, nesting and counts are deterministic; durations are
    // not compared.
    EXPECT_EQ(first, second);

    const auto &spans = first[0];
    ASSERT_FALSE(spans.empty());
    EXPECT_EQ(spans[0], (std::pair<std::string, int>("request", -1)));
    auto count = [&](const char *name) {
        return std::count_if(spans.begin(), spans.end(),
                             [&](const auto &s) {
                                 return s.first == name;
                             });
    };
    // The request missed the (fresh) cache and compiled: the
    // pipeline stages and at least one scheduler rung are there.
    EXPECT_EQ(count("cache.lookup"), 1);
    EXPECT_EQ(count("cache.insert"), 1);
    EXPECT_EQ(count("queue.push"), 1);
    EXPECT_EQ(count("compile"), 1);
    EXPECT_EQ(count("schedule"), 1);
    EXPECT_EQ(count("codegen"), 1);
    EXPECT_GE(count("sched.attempt"), 1);
}

TEST(Trace, DisarmedServiceRecordsNothing)
{
    ASSERT_FALSE(obs::traceArmed());
    const auto traces = traceOneRequest(fir8Request());
    EXPECT_TRUE(traces.empty());
    EXPECT_EQ(obs::TraceLog::instance().dropped(), 0u);
}

TEST(Trace, ArmedCompileIsBitIdenticalToDisarmed)
{
    // Tracing must be purely observational: the same request
    // compiled with the tracer disarmed and armed yields the same
    // schedule, down to every wire-serialized field (II, cycles,
    // moves, queue allocation, kernel text).
    const CompileRequest req = fir8Request();
    std::string disarmed_line;
    {
        ASSERT_FALSE(obs::traceArmed());
        CompileService service;
        disarmed_line = wireResultToLine(*service.compile(req));
    }
    std::string armed_line;
    {
        obs::armTrace(16);
        CompileService service;
        armed_line = wireResultToLine(*service.compile(req));
        obs::disarmTrace();
        obs::TraceLog::instance().clear();
    }
    EXPECT_EQ(armed_line, disarmed_line);
}

} // namespace
} // namespace dms
