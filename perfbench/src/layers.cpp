/**
 * @file
 * The traced run.
 *
 * Service workloads: a seeded sample of the workload's requests is
 * sent through the live system untraced (1 client, 1 worker,
 * in-process and over a loopback TCP front-end), then replayed as
 * timed calls into each layer's public functions in the service's
 * order: key and alias probe, machine parse, loop parse, validation,
 * canonicalisation, cache, then runLoop, whose Pipeline::run opens
 * one span per stage. The wire codec runs on each request and its
 * served result.
 *
 * paper_matrix: the cells of a seeded sub-suite are compiled the way
 * runMatrix compiles them (one Pipeline per column, runLoop per cell),
 * untraced and traced. No service, socket or submit path is involved,
 * so those layers read 0.
 *
 * Spans (name, start, end, parent, request id) are kept in memory as
 * obs::Trace objects and written as Chrome trace_event JSON at the
 * end; a layer's self time is its span minus its children.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "analysis/analyze.h"
#include "internal.h"
#include "machine/desc.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "support/strings.h"
#include "workload/suite.h"
#include "workload/text.h"

namespace perfbench {

using namespace dms;

namespace {

/** Requests per traced sample (service workloads). */
constexpr int kTraceSample = 256;

/** Loops in the paper_matrix traced sub-suite (x 10 x 2 cells). */
constexpr size_t kMatrixSubSuite = 24;

constexpr std::uint64_t kSubSuiteSalt = 0x5b5b5bULL;

/** Layers timed by spans; each reports `<name>_us`. */
constexpr const char *kSpanLayers[] = {
    "workload.loop_parse", "workload.loop_canon", "machine.parse",
    "machine.canon",       "serve.key",           "serve.alias_find",
    "serve.validate",      "serve.cache_acquire", "serve.alias_insert",
    "serve.publish",       "net.req_encode",      "net.req_decode",
    "net.result_encode",   "net.result_decode",   "pipeline.unroll",
    "pipeline.prepass",    "pipeline.mii",        "pipeline.schedule",
    "pipeline.regalloc",   "pipeline.verify",     "pipeline.perf"};

/**
 * The option fields of a compile request's cache key, in the
 * service's format (serve/service.cc keys on the same fields).
 */
std::string
optionsKey(const PipelineOptions &po)
{
    return strfmt(
        "sched=%s;unroll=%d;umax=%d;uops=%d;verify=%d;ra=%d;cg=%d;"
        "b.budget=%d;b.maxii=%d;d.budget=%d;d.maxii=%d;"
        "d.restarts=%d;d.chains=%d;d.rule=%d;d.s3=%d",
        po.scheduler.c_str(), po.forceUnroll, po.unrollMaxFactor,
        po.unrollMaxOps, po.verify ? 1 : 0, po.regalloc ? 1 : 0,
        po.codegen ? 1 : 0, po.config.base.budgetRatio,
        po.config.base.maxII, po.config.dms.budgetRatio,
        po.config.dms.maxII, po.config.dms.restartsPerII,
        po.config.dms.enableChains ? 1 : 0,
        static_cast<int>(po.config.dms.chainRule),
        static_cast<int>(po.config.dms.s3Policy));
}

/** The bench-owned submit-side state a replay runs against. */
struct ReplayState
{
    explicit ReplayState(int capacity)
        : cache(ServeOptions().shards, capacity),
          aliases(ServeOptions().shards, capacity)
    {
    }

    ResultCache cache;
    ResultCache aliases;
    CompilationContext ctx;
};

/** What one replayed request did, beyond its spans. */
struct Replayed
{
    bool compiled = false;
    bool parsed = true;
    LoopRun run;
    int lines = 0;
    int opsAfterUnroll = 0;
    int copies = 0;
    int attempts = 0;
    long placements = 0;
    int moves = 0;
    int iiMinusMii = 0;
    int queues = 0;
};

/**
 * One compile as the service worker and the runner run it: runLoop
 * inside a "compile" span, with ctx.trace set so Pipeline::run opens
 * one span per stage. The IR and scheduler counts are read from
 * @p ctx afterwards.
 */
void
compile(const Pipeline &pipeline, const Loop &loop,
        const MachineModel &machine, CompilationContext &ctx,
        obs::Trace *tr, Replayed &out)
{
    {
        obs::ScopedSpan span(tr, "compile");
        ctx.trace = tr;
        out.run = runLoop(pipeline, loop, machine, ctx);
        ctx.trace = nullptr;
    }
    const SchedOutcome &so = ctx.result.sched;
    out.compiled = true;
    out.copies = ctx.prepass.copiesInserted;
    out.opsAfterUnroll = ctx.body.numOps() - out.copies;
    out.attempts = so.attempts;
    out.placements = so.budgetUsed;
    out.moves = so.movesInserted;
    out.iiMinusMii = so.ok ? so.ii - so.mii : 0;
    out.queues = ctx.queuesValid ? ctx.perf.queues : 0;
}

/**
 * One request through the submit path and, on a miss, the
 * pipeline — the order CompileService::submit and its worker use.
 */
Replayed
replay(ReplayState &st, const CompileRequest &req, obs::Trace *tr)
{
    Replayed out;
    obs::ScopedSpan root(tr, "request");
    std::string raw_key;
    std::uint64_t raw_hash = 0;
    {
        obs::ScopedSpan span(tr, "serve.key");
        raw_key = req.loopText;
        raw_key += '\x01';
        raw_key += req.machineText;
        raw_key += '\x01';
        raw_key += optionsKey(req.options);
        raw_hash = fnv1a64(raw_key);
    }
    std::shared_ptr<CacheEntry> entry;
    {
        obs::ScopedSpan span(tr, "serve.alias_find");
        entry = st.aliases.find(raw_key, raw_hash);
    }
    if (entry != nullptr) {
        out.run = entry->future.get()->run;
        return out;
    }

    std::string error;
    MachineModel machine = MachineModel::unclustered(1);
    Loop loop;
    {
        obs::ScopedSpan span(tr, "machine.parse");
        out.parsed = machineFromText(req.machineText, machine, error);
    }
    {
        obs::ScopedSpan span(tr, "workload.loop_parse");
        out.parsed = out.parsed && loopFromText(req.loopText, loop, error,
                                                machine.latency());
    }
    out.lines = static_cast<int>(
        std::count(req.loopText.begin(), req.loopText.end(), '\n'));
    if (!out.parsed)
        return out;
    PipelineOptions options = req.options;
    {
        obs::ScopedSpan span(tr, "serve.validate");
        if (options.scheduler.empty())
            options.scheduler = machine.clustered() ? "dms" : "ims";
        std::unique_ptr<Scheduler> sched =
            SchedulerRegistry::instance().create(options.scheduler);
        out.parsed = sched != nullptr && sched->supports(machine) &&
                     loop.ddg.numOps() > 0;
        loop.ddg.opCountByClass();
    }
    if (!out.parsed)
        return out;
    options.perf = true;
    std::string loop_text;
    std::string machine_text;
    {
        obs::ScopedSpan span(tr, "workload.loop_canon");
        loop_text = loopToText(loop);
    }
    {
        obs::ScopedSpan span(tr, "machine.canon");
        machine_text = machineToText(machine);
    }
    std::string key;
    std::uint64_t hash = 0;
    {
        obs::ScopedSpan span(tr, "serve.key");
        key = std::move(loop_text);
        key += '\x01';
        key += machine_text;
        key += '\x01';
        key += optionsKey(options);
        hash = fnv1a64(key);
    }
    ResultCache::Lookup found;
    {
        obs::ScopedSpan span(tr, "serve.cache_acquire");
        found = st.cache.acquire(key, hash, entry);
    }
    {
        obs::ScopedSpan span(tr, "serve.alias_insert");
        st.aliases.insertAlias(raw_key, raw_hash, entry);
    }
    if (found != ResultCache::Lookup::Inserted) {
        out.run = entry->future.get()->run;
        return out;
    }

    compile(Pipeline(options), loop, machine, st.ctx, tr, out);
    {
        obs::ScopedSpan span(tr, "serve.publish");
        auto result = std::make_shared<CompileResult>();
        result->parsed = true;
        result->ok = out.run.ok;
        result->status = out.run.ok ? CompileStatus::Ok
                                    : CompileStatus::Unschedulable;
        result->run = out.run;
        entry->ready.store(true, std::memory_order_release);
        entry->promise.set_value(std::move(result));
    }
    return out;
}

/** The wire round trip of one request and its result. */
struct Wire
{
    size_t bytesIn = 0;
    size_t bytesOut = 0;
    std::string problem;
};

Wire
replayWire(const CompileRequest &req, const CompileResult &result,
           obs::Trace *tr)
{
    Wire out;
    obs::ScopedSpan root(tr, "wire");
    WireRequest wreq;
    wreq.request = req;
    std::string line;
    {
        obs::ScopedSpan span(tr, "net.req_encode");
        line = wireRequestToLine(wreq);
    }
    WireRequest back;
    std::string error;
    bool ok = false;
    {
        obs::ScopedSpan span(tr, "net.req_decode");
        ok = wireRequestFromLine(line, back, error);
    }
    if (!ok || back.request.loopText != req.loopText)
        out.problem = "request line does not round-trip: " + error;
    std::string rline;
    {
        obs::ScopedSpan span(tr, "net.result_encode");
        rline = wireResultToLine(result);
    }
    CompileResult rback;
    {
        obs::ScopedSpan span(tr, "net.result_decode");
        ok = wireResultFromLine(rline, rback, error);
    }
    if (!ok || rback.run != result.run || rback.status != result.status)
        out.problem = "result line does not round-trip: " + error;
    out.bytesIn = line.size() + 1;
    out.bytesOut = rline.size() + 1;
    return out;
}

/** The paper_matrix sample: a seeded sub-suite. */
std::vector<Loop>
subSuite(const Streams &streams)
{
    std::vector<Loop> suite = standardSuite();
    std::vector<Loop> out;
    Rng rng(streams.mix(kSubSuiteSalt, 0));
    for (size_t k = 0; k < kMatrixSubSuite && !suite.empty(); ++k) {
        const size_t i = static_cast<size_t>(
            rng.range(0, static_cast<int>(suite.size()) - 1));
        out.push_back(std::move(suite[i]));
        suite.erase(suite.begin() + static_cast<long>(i));
    }
    return out;
}

/** One cell of the paper matrix. */
struct Cell
{
    size_t loop = 0;
    int clusters = 0;
    bool clustered = false;
    MachineModel machine = MachineModel::unclustered(1);
};

/** Every cell of @p loops's matrix, column by column. */
std::vector<Cell>
matrixCells(size_t loops, const RunnerOptions &opts)
{
    std::vector<Cell> out;
    for (int c = 1; c <= opts.maxClusters; ++c) {
        for (bool clustered : {false, true}) {
            Cell cell;
            cell.clusters = c;
            cell.clustered = clustered;
            std::string error;
            if (!machineFromText(
                    expandMachineTemplate(clustered
                                              ? opts.clusteredMachine
                                              : opts.unclusteredMachine,
                                          c),
                    cell.machine, error))
                fatal("perfbench: machine template: %s", error.c_str());
            for (size_t li = 0; li < loops; ++li) {
                cell.loop = li;
                out.push_back(cell);
            }
        }
    }
    return out;
}

/** A column's pipeline options, as runMatrix builds them. */
PipelineOptions
columnOptions(const RunnerOptions &opts, bool clustered)
{
    PipelineOptions po;
    po.scheduler =
        clustered ? opts.clusteredScheduler : opts.unclusteredScheduler;
    po.config.base = opts.ims;
    po.config.dms = opts.dms;
    po.verify = opts.verify;
    po.regalloc = opts.regalloc;
    po.perf = true;
    po.analyze = opts.analyze;
    return po;
}

/** Per-layer self time, summed per request, over requests it ran. */
struct SelfTimes
{
    struct Layer
    {
        double us = 0;
        long requests = 0;
    };
    std::map<std::string, Layer> layers;
    std::vector<double> requestUs; ///< "request" root per request
    std::vector<double> compileUs; ///< "compile" span per compile
    long spans = 0;

    void
    add(const obs::Trace &trace)
    {
        const std::vector<obs::TraceSpan> &spans_ = trace.spans();
        std::vector<double> self(spans_.size());
        for (size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].durUs;
        for (size_t i = 0; i < spans_.size(); ++i) {
            if (spans_[i].parent >= 0)
                self[static_cast<size_t>(spans_[i].parent)] -=
                    spans_[i].durUs;
        }
        std::map<std::string, double> per_request;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const obs::TraceSpan &s = spans_[i];
            // Pipeline::run names its spans by stage.
            const bool stage =
                s.parent >= 0 &&
                spans_[static_cast<size_t>(s.parent)].name == "compile";
            per_request[stage ? "pipeline." + s.name : s.name] += self[i];
            if (s.name == "request")
                requestUs.push_back(s.durUs);
            if (s.name == "compile")
                compileUs.push_back(s.durUs);
        }
        for (const auto &kv : per_request) {
            layers[kv.first].us += kv.second;
            layers[kv.first].requests += 1;
        }
        spans += static_cast<long>(spans_.size());
    }

    double
    meanUs(const std::string &name) const
    {
        auto it = layers.find(name);
        return it == layers.end() || it->second.requests == 0
                   ? 0.0
                   : it->second.us / it->second.requests;
    }

    double
    totalUs(const std::string &name) const
    {
        auto it = layers.find(name);
        return it == layers.end() ? 0.0 : it->second.us;
    }
};

double
per(double v, double d)
{
    return d > 0 ? v / d : 0.0;
}

void
zero(Report &rep, std::initializer_list<const char *> names)
{
    for (const char *n : names)
        rep.set(n, 0.0);
}

/** The span-timed layers and the per-compile IR/scheduler counts. */
void
setLayerMetrics(Report &rep, const SelfTimes &self,
                const std::vector<Replayed> &replayed)
{
    for (const char *layer : kSpanLayers)
        rep.set(std::string(layer) + "_us", self.meanUs(layer));
    double lines = 0;
    double compiles = 0;
    double oks = 0;
    double ops = 0, copies = 0, attempts = 0, placements = 0, moves = 0,
           slack = 0, queues = 0;
    for (const Replayed &r : replayed) {
        lines += r.lines;
        if (!r.compiled)
            continue;
        compiles += 1;
        ops += r.opsAfterUnroll;
        copies += r.copies;
        attempts += r.attempts;
        placements += static_cast<double>(r.placements);
        moves += r.moves;
        queues += r.queues;
        if (r.run.ok) {
            oks += 1;
            slack += r.iiMinusMii;
        }
    }
    rep.set("workload.parse_lines_per_s",
            per(lines, self.totalUs("workload.loop_parse") * 1e-6));
    rep.set("ir.ops_after_unroll", per(ops, compiles));
    rep.set("ir.copies_inserted", per(copies, compiles));
    rep.set("sched.attempts", per(attempts, compiles));
    rep.set("sched.placements", per(placements, compiles));
    rep.set("sched.moves_inserted", per(moves, compiles));
    rep.set("sched.ii_minus_mii", per(slack, oks));
    rep.set("sched.placements_per_s",
            per(placements, self.totalUs("pipeline.schedule") * 1e-6));
    rep.set("regalloc.queues_required", per(queues, compiles));
    rep.set("trace.spans", static_cast<double>(self.spans));
    rep.note(strfmt("traced sample: %zu requests, %.0f compiled",
                    replayed.size(), compiles));
}

/** Lint the spans as trace_event JSON and write them out. */
void
exportTrace(Report &rep, const RunArgs &args,
            const std::vector<std::shared_ptr<obs::Trace>> &traces,
            long spans)
{
    const std::string json = obs::tracesToJson(
        std::vector<std::shared_ptr<const obs::Trace>>(traces.begin(),
                                                       traces.end()));
    DiagnosticSink sink;
    lintTraceText(json, "perfbench", sink);
    if (!sink.empty())
        rep.fail("trace export fails obs.trace-nesting:\n" +
                 sink.renderText());
    if (args.traceOut.empty())
        return;
    std::FILE *f = std::fopen(args.traceOut.c_str(), "w");
    if (f == nullptr ||
        std::fwrite(json.data(), 1, json.size(), f) != json.size()) {
        rep.fail("cannot write " + args.traceOut);
    } else {
        rep.note(strfmt("wrote %ld spans of %zu requests to %s", spans,
                        traces.size(), args.traceOut.c_str()));
    }
    if (f != nullptr)
        std::fclose(f);
}

/** Stage sum vs the untraced latency of the same requests. */
void
setStageSum(Report &rep, const SelfTimes &self,
            const std::vector<double> &untracedUs, const char *against,
            bool gate)
{
    std::vector<double> ratio;
    for (size_t i = 0; i < untracedUs.size(); ++i)
        ratio.push_back(per(self.requestUs[i], untracedUs[i]));
    const double frac = median(ratio);
    rep.set("trace.stage_sum_frac", frac);
    rep.note(strfmt("stage sum: layer self times p50 %.1f us vs %s p50 "
                    "%.1f us; per-request ratio p50 %.1f%%%s",
                    median(self.requestUs), against, median(untracedUs),
                    frac * 100,
                    !gate                          ? ""
                    : std::abs(frac - 1) <= 0.10 ? ": within 10%"
                                                 : ": NOT within 10%"));
}

/** ns per LatencyHistogram::record, median of 5 rounds. */
double
latencyRecordNs()
{
    constexpr int kRecords = 1 << 20;
    std::vector<double> values(1024);
    for (size_t i = 0; i < values.size(); ++i)
        values[i] = 0.001 * static_cast<double>(i * 37 % 5000 + 1);
    std::vector<double> rounds;
    for (int r = 0; r < 5; ++r) {
        obs::LatencyHistogram h;
        const double t0 = nowSeconds();
        for (int i = 0; i < kRecords; ++i)
            h.record(values[static_cast<size_t>(i) & 1023]);
        rounds.push_back((nowSeconds() - t0) * 1e9 / kRecords);
        if (h.snapshot().count != static_cast<std::uint64_t>(kRecords))
            return 0.0;
    }
    return median(rounds);
}

/** us per CompileService::metrics() snapshot. */
double
metricsSnapshotUs(CompileService &service)
{
    constexpr int kCalls = 2000;
    std::size_t sink = 0;
    const double t0 = nowSeconds();
    for (int i = 0; i < kCalls; ++i)
        sink += service.metrics().counters.size();
    const double us = (nowSeconds() - t0) * 1e6 / kCalls;
    return sink > 0 ? us : 0.0;
}

Report
runTracedService(const RunArgs &args, const Shape &shape,
                 const Streams &streams)
{
    const Workload w = args.workload;
    const int capacity = shape.cacheCapacity;
    Report rep;
    rep.config.push_back("\"clients\":1");
    rep.config.push_back("\"workers\":1");
    rep.config.push_back("\"jobs\":1");
    rep.config.push_back(strfmt("\"cache_capacity\":%d", capacity));

    // --- serve counters from an untraced window of the workload ---
    {
        const ServicePhase phase = runServicePhase(
            w, shape, streams, std::clamp(args.seconds / 4, 0.5, 3.0), 1,
            0);
        const auto delta = [&](const char *name) {
            return static_cast<double>(counterOf(phase.after, name) -
                                       counterOf(phase.before, name));
        };
        const double requests = std::max(delta("serve.requests"), 1.0);
        rep.set("serve.hit_rate",
                (delta("serve.hits") + delta("serve.coalesced")) /
                    requests);
        rep.set("serve.evictions_per_kreq",
                delta("cache.evictions") * 1e3 / requests);
        rep.set("serve.misses_per_kreq",
                delta("serve.misses") * 1e3 / requests);
        rep.set("serve.queue_peak",
                gaugeOf(phase.after, "serve.queue_depth_peak"));
        rep.note(strfmt("window: %ld requests in %.3f s untraced "
                        "(%d clients, %d workers)",
                        phase.stats.requests, phase.stats.seconds,
                        shape.clients, shape.workers));
        const std::string split = phase.splitProblem(w);
        if (!split.empty())
            rep.fail(split);
    }

    const std::vector<Request> sample =
        generate(streams, w, 0, kTraceSample);
    rep.attempted = static_cast<long>(sample.size());
    std::vector<bool> bad(sample.size(), false);
    const auto mismatch = [&](size_t i, const std::string &why) {
        if (!bad[i])
            rep.fail(strfmt("sample request %zu: %s", i, why.c_str()));
        bad[i] = true;
    };

    // --- the sample, four ways, on one CPU --------------------------
    // Each request goes four ways, back to back: through the live
    // service in-process and over TCP (1 client, 1 worker, untraced),
    // and through the replay without and with spans. The order
    // rotates with the request, so a drift in the machine's speed
    // hits all four alike.
    OneCpu pin;
    Rig local_rig(w, streams, {1, 1, capacity, false});
    local_rig.prime();
    Rig tcp_rig(w, streams, {1, 1, capacity, true});
    tcp_rig.prime();
    ReplayState plain(capacity);
    ReplayState traced(capacity);
    for (ReplayState *st : {&plain, &traced}) {
        if (w == Workload::ColdUnique)
            replay(*st, streams.warmup(0).req, nullptr);
        else
            for (const std::string &text : streams.hotTexts())
                replay(*st, streams.request(text), nullptr);
    }
    std::vector<double> local_us(sample.size());
    std::vector<double> tcp_us(sample.size());
    std::vector<CompileService::ResultPtr> local(sample.size());
    std::vector<CompileService::ResultPtr> remote(sample.size());
    std::vector<std::shared_ptr<obs::Trace>> traces(sample.size());
    std::vector<Replayed> replayed(sample.size());
    double untraced_s = 0;
    double traced_s = 0;
    for (size_t i = 0; i < sample.size(); ++i) {
        const CompileRequest &req = sample[i].req;
        for (size_t k = 0; k < 4; ++k) {
            const double t0 = nowSeconds();
            switch ((i + k) % 4) {
            case 0:
                local[i] = local_rig.issue(0, req);
                local_us[i] = (nowSeconds() - t0) * 1e6;
                break;
            case 1:
                remote[i] = tcp_rig.issue(0, req);
                tcp_us[i] = (nowSeconds() - t0) * 1e6;
                break;
            case 2:
                replay(plain, req, nullptr);
                untraced_s += nowSeconds() - t0;
                break;
            default:
                traces[i] = std::make_shared<obs::Trace>();
                replayed[i] = replay(traced, req, traces[i].get());
                traces[i]->finish();
                traced_s += nowSeconds() - t0;
                break;
            }
        }
    }
    const double snapshot_us = metricsSnapshotUs(local_rig.service());
    for (size_t i = 0; i < sample.size(); ++i) {
        const CompileResult &a = *local[i];
        const CompileResult &b = *remote[i];
        if (a.status != CompileStatus::Ok &&
            a.status != CompileStatus::Unschedulable)
            mismatch(i, strfmt("status %s: %s",
                               compileStatusName(a.status),
                               a.error.c_str()));
        if (a.status != b.status || a.run != b.run)
            mismatch(i, "TCP result differs from in-process result");
    }

    // --- wire codec, on the same requests and their results --------
    double bytes_in = 0;
    double bytes_out = 0;
    for (size_t i = 0; i < sample.size(); ++i) {
        const Wire wire =
            replayWire(sample[i].req, *local[i], traces[i].get());
        traces[i]->finish();
        bytes_in += static_cast<double>(wire.bytesIn);
        bytes_out += static_cast<double>(wire.bytesOut);
        if (!wire.problem.empty())
            mismatch(i, wire.problem);
        if (!replayed[i].parsed || replayed[i].run != local[i]->run)
            mismatch(i, "replayed LoopRun differs from the served one");
    }
    pin.restore();

    SelfTimes self;
    for (const auto &trace : traces)
        self.add(*trace);
    setLayerMetrics(rep, self, replayed);
    const double n = static_cast<double>(sample.size());
    rep.set("net.bytes_in_per_req", per(bytes_in, n));
    rep.set("net.bytes_out_per_req", per(bytes_out, n));
    rep.set("net.overhead_us", median(tcp_us) - median(local_us));

    // Stage sum vs the untraced 1-client/1-worker latency, paired
    // per request; the residual is the queue handoff and the
    // service's bookkeeping.
    std::vector<double> residual;
    for (size_t i = 0; i < sample.size(); ++i)
        residual.push_back(local_us[i] - self.requestUs[i]);
    rep.set("serve.residual_us", median(residual));
    setStageSum(rep, self, local_us,
                "untraced 1-client/1-worker latency",
                w == Workload::ColdUnique);
    rep.set("trace.overhead_frac", 1.0 - per(untraced_s, traced_s));
    rep.set("obs.latency_record_ns", latencyRecordNs());
    rep.set("obs.metrics_snapshot_us", snapshot_us);
    rep.set("eval.cell_p50_us", 0.0);
    zero(rep, {"eval.parallel_efficiency", "eval.cell_max_share"});

    exportTrace(rep, args, traces, self.spans);
    rep.failed = static_cast<long>(std::count(bad.begin(), bad.end(), true));
    rep.note(strfmt("replay %.4f s untraced vs %.4f s traced", untraced_s,
                    traced_s));
    return rep;
}

Report
runTracedMatrix(const RunArgs &args, const Streams &streams)
{
    Report rep;
    rep.config.push_back("\"clients\":0");
    rep.config.push_back("\"workers\":0");
    const int jobs = matrixJobs(usableCpus());
    rep.config.push_back(strfmt("\"jobs\":%d", jobs));
    rep.config.push_back("\"cache_capacity\":0");
    const RunnerOptions opts = matrixOptions(jobs);
    const std::vector<Loop> sub = subSuite(streams);
    const std::vector<Cell> cells = matrixCells(sub.size(), opts);
    rep.attempted = static_cast<long>(cells.size());
    std::vector<bool> bad(cells.size(), false);
    const auto mismatch = [&](size_t i, const std::string &why) {
        if (!bad[i])
            rep.fail(strfmt("sample cell %zu: %s", i, why.c_str()));
        bad[i] = true;
    };

    // --- every cell twice, on one CPU -------------------------------
    // Untraced and traced back to back, in alternating order, each in
    // its own context with the runner's per-column pipelines.
    const Pipeline unclustered(columnOptions(opts, false));
    const Pipeline clustered(columnOptions(opts, true));
    const auto pipelineOf = [&](const Cell &c) -> const Pipeline & {
        return c.clustered ? clustered : unclustered;
    };
    OneCpu pin;
    CompilationContext plain_ctx;
    CompilationContext traced_ctx;
    for (const Cell *c : {&cells.front(), &cells.back()}) {
        runLoop(pipelineOf(*c), sub[c->loop], c->machine, plain_ctx);
        runLoop(pipelineOf(*c), sub[c->loop], c->machine, traced_ctx);
    }
    std::vector<double> untraced_us(cells.size());
    std::vector<LoopRun> plain(cells.size());
    std::vector<std::shared_ptr<obs::Trace>> traces(cells.size());
    std::vector<Replayed> replayed(cells.size());
    double untraced_s = 0;
    double traced_s = 0;
    for (size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        for (size_t k = 0; k < 2; ++k) {
            const double t0 = nowSeconds();
            if ((i + k) % 2 == 0) {
                plain[i] = runLoop(pipelineOf(c), sub[c.loop], c.machine,
                                   plain_ctx);
                untraced_us[i] = (nowSeconds() - t0) * 1e6;
                untraced_s += nowSeconds() - t0;
            } else {
                traces[i] = std::make_shared<obs::Trace>();
                {
                    obs::ScopedSpan root(traces[i].get(), "request");
                    compile(pipelineOf(c), sub[c.loop], c.machine,
                            traced_ctx, traces[i].get(), replayed[i]);
                }
                traces[i]->finish();
                traced_s += nowSeconds() - t0;
            }
        }
    }
    pin.restore();

    // --- the eval runner over the sub-suite -------------------------
    std::vector<double> serial;
    std::vector<double> parallel;
    RunnerOptions one = opts;
    one.jobs = 1;
    std::vector<ConfigRun> matrix;
    for (int r = 0; r < 3; ++r) {
        double t0 = nowSeconds();
        runMatrix(sub, one);
        serial.push_back(nowSeconds() - t0);
        t0 = nowSeconds();
        matrix = runMatrix(sub, opts);
        parallel.push_back(nowSeconds() - t0);
    }
    for (size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        const ConfigRun &cfg = matrix[static_cast<size_t>(c.clusters - 1)];
        const LoopRun &want =
            c.clustered ? cfg.clustered[c.loop] : cfg.unclustered[c.loop];
        if (plain[i] != want || replayed[i].run != want)
            mismatch(i, strfmt("(%s, %d clusters, %s) differs from "
                               "runMatrix",
                               sub[c.loop].name.c_str(), c.clusters,
                               c.clustered ? "dms" : "ims"));
    }

    SelfTimes self;
    for (const auto &trace : traces)
        self.add(*trace);
    setLayerMetrics(rep, self, replayed);
    setStageSum(rep, self, untraced_us, "untraced runLoop", false);
    rep.set("trace.overhead_frac", 1.0 - per(untraced_s, traced_s));
    rep.set("eval.cell_p50_us", median(self.compileUs));
    const double t1 = median(serial);
    const double tn = median(parallel);
    rep.set("eval.parallel_efficiency", t1 / (jobs * tn));
    const double max_cell =
        self.compileUs.empty()
            ? 0.0
            : *std::max_element(self.compileUs.begin(),
                                self.compileUs.end());
    rep.set("eval.cell_max_share", max_cell * 1e-6 / tn);
    rep.note(strfmt("runMatrix over %zu loops: %.4f s at 1 job, %.4f s "
                    "at %d jobs",
                    sub.size(), t1, tn, jobs));

    // runMatrix takes no service, socket or submit path.
    zero(rep, {"serve.hit_rate", "serve.evictions_per_kreq",
               "serve.misses_per_kreq", "serve.queue_peak",
               "serve.residual_us", "net.bytes_in_per_req",
               "net.bytes_out_per_req", "net.overhead_us",
               "obs.latency_record_ns", "obs.metrics_snapshot_us"});

    exportTrace(rep, args, traces, self.spans);
    rep.failed = static_cast<long>(std::count(bad.begin(), bad.end(), true));
    rep.note(strfmt("cells %.4f s untraced vs %.4f s traced", untraced_s,
                    traced_s));
    return rep;
}

} // namespace

Report
runTraced(const RunArgs &args)
{
    const Shape shape = shapeOf(args.workload, usableCpus());
    const Streams streams(args.seed);
    return args.workload == Workload::PaperMatrix
               ? runTracedMatrix(args, streams)
               : runTracedService(args, shape, streams);
}

} // namespace perfbench
