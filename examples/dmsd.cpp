/**
 * @file
 * dmsd — the DMS compile server. Wraps the long-lived
 * CompileService (serve/service.h) behind a tiny driver that
 * serves compilation requests in the textual formats the rest of
 * the repo speaks: loops in workload/text form, machines in
 * machine/desc form.
 *
 * Usage:
 *   dmsd [options] --script FILE     serve requests from a script
 *   dmsd [options] --load N          built-in load generator
 *   dmsd [options] --listen PORT     TCP daemon (serve/net.h wire
 *                                    protocol; 0 = ephemeral port;
 *                                    SIGTERM/SIGINT shut down
 *                                    cleanly: queue drained, report
 *                                    printed, exit 0)
 *   dmsd [options] --connect HOST:PORT --load N
 *                                    network client: the same zipf
 *                                    load generator, over sockets
 *
 * Options:
 *   --workers N    service worker threads (default: DMS_SERVE_WORKERS
 *                  env, else hardware concurrency)
 *   --clients N    concurrent client threads (default 4)
 *   --machine FILE default machine description (default: the
 *                  paper's 4-cluster queue-file ring)
 *   --sched NAME   scheduler (default: auto — dms on clustered
 *                  machines, ims otherwise)
 *   --hot P        load-gen: percent of requests drawn from the
 *                  zipf-skewed hot kernel set (default 75)
 *   --seed S       load-gen request-mix seed (default 42)
 *   --retries N        load-gen: attempts per request (default 1 =
 *                      no retry; Rejected/Failed are retried with
 *                      exponential backoff + deterministic jitter)
 *   --backoff-ms N     load-gen: base retry backoff (default 2)
 *   --deadline-ms N    load-gen: per-request deadline (default 0 =
 *                      none; expiry is a structured Expired result)
 *   --submit-wait-ms N load-gen: shed wait — compile() rejects a
 *                      request when the queue stays full this long
 *                      (default: blocking submit)
 *   --metrics-out FILE write the final metrics snapshot in the
 *                      `dmsmetrics v1` text form (lintable with
 *                      dmslint); over the wire in --connect mode
 *   --trace-out FILE   write the collected request traces as
 *                      Chrome trace_event JSON (non-empty only
 *                      under DMS_TRACE=1; lintable with dmslint);
 *                      over the wire in --connect mode
 *
 * Every mode ends with a serving report (serve:, cache:, faults:,
 * net: and latency: lines) read off the final metrics snapshot —
 * in --connect mode the daemon's, fetched with the `metrics` verb.
 * DMS_METRICS=1 additionally prints the snapshot text to stdout.
 *
 * With DMS_FAULTS armed (see support/faultinject.h) dmsd prints
 * the per-site injection counters and treats fault-driven
 * failures as expected chaos: the exit code then only reflects
 * invalid requests and process health, so CI can grep "injected"
 * and assert the daemon survived.
 *
 * Script format, one directive per line ('#' comments):
 *   machine FILE   switch the current machine description
 *   sched NAME     switch the scheduler ("auto" resets)
 *   compile SPEC   one request; SPEC is a loop file or kernel:NAME
 *   repeat N SPEC  N identical requests (exercises the cache and
 *                  single-flight dedup)
 *
 * Script mode prints one line per request, in script order:
 * "II=.. (MII=..), SC=.., N cycles [cold|coalesced|hit]" for a
 * schedule, "unschedulable (MII N, no schedule)", or the status
 * name and its error ("failed (injected fault at ...)"). Any
 * non-Ok request makes the exit code 1; with DMS_FAULTS armed only
 * invalid ones do.
 *
 * The service's queue depth, shard count and cache capacity come
 * from the DMS_SERVE_QUEUE_DEPTH / DMS_SERVE_SHARDS /
 * DMS_SERVE_CACHE_CAP environment knobs (strictly parsed).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "machine/desc.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/loadgen.h"
#include "serve/net.h"
#include "serve/service.h"
#include "support/diag.h"
#include "support/faultinject.h"
#include "support/strings.h"
#include "workload/text.h"

namespace {

using namespace dms;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open '%s'", path.c_str());
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeTextFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fatal("cannot write '%s'", path.c_str());
    std::fputs(text.c_str(), f);
    std::fclose(f);
}

const char *
sourceName(CompileService::Source s)
{
    switch (s) {
    case CompileService::Source::Miss:
        return "cold";
    case CompileService::Source::Coalesced:
        return "coalesced";
    case CompileService::Source::Hit:
        return "hit";
    }
    return "?";
}

/** Counter @p name of @p m; 0 when the snapshot lacks it. */
std::uint64_t
counterOf(const obs::MetricsSnapshot &m, const char *name)
{
    const auto *c = m.findCounter(name);
    return c != nullptr ? c->value : 0;
}

/** Gauge @p name of @p m; 0 when the snapshot lacks it. */
double
gaugeOf(const obs::MetricsSnapshot &m, const char *name)
{
    const auto *g = m.findGauge(name);
    return g != nullptr ? g->value : 0.0;
}

/**
 * End-of-run output shared by every mode: the serving report read
 * off @p m, then the snapshot's dmsmetrics v1 text to
 * --metrics-out and/or stdout (DMS_METRICS=1).
 */
void
reportMetrics(const obs::MetricsSnapshot &m,
              const std::string &metrics_out)
{
    const std::uint64_t requests = counterOf(m, "serve.requests");
    const std::uint64_t hits = counterOf(m, "serve.hits");
    const std::uint64_t coalesced = counterOf(m, "serve.coalesced");
    const double hit_rate =
        requests == 0 ? 0.0
                      : static_cast<double>(hits + coalesced) /
                            static_cast<double>(requests);
    std::printf("serve: %llu requests, %llu hits, %llu coalesced, "
                "%llu cold, %llu invalid (hit rate %.1f%%)\n",
                static_cast<unsigned long long>(requests),
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(coalesced),
                static_cast<unsigned long long>(
                    counterOf(m, "serve.misses")),
                static_cast<unsigned long long>(
                    counterOf(m, "serve.invalid")),
                hit_rate * 100.0);
    std::printf("cache: %.0f entries resident, %llu evicted, "
                "%llu retired; queue peak depth %.0f/%.0f\n",
                gaugeOf(m, "cache.entries"),
                static_cast<unsigned long long>(
                    counterOf(m, "cache.evictions")),
                static_cast<unsigned long long>(
                    counterOf(m, "cache.retired")),
                gaugeOf(m, "serve.queue_depth_peak"),
                gaugeOf(m, "serve.queue_capacity"));
    const std::uint64_t failed = counterOf(m, "serve.failed");
    const std::uint64_t expired = counterOf(m, "serve.expired");
    const std::uint64_t shed = counterOf(m, "serve.shed");
    const std::uint64_t quarantined =
        counterOf(m, "serve.quarantined");
    const bool degraded = gaugeOf(m, "serve.degraded") != 0.0;
    if (failed + expired + shed + quarantined > 0 || degraded) {
        std::printf(
            "faults: %llu failed, %llu expired, %llu shed, "
            "%llu quarantined%s\n",
            static_cast<unsigned long long>(failed),
            static_cast<unsigned long long>(expired),
            static_cast<unsigned long long>(shed),
            static_cast<unsigned long long>(quarantined),
            degraded ? " [degraded]" : "");
    }
    const std::uint64_t connections =
        counterOf(m, "net.connections");
    if (connections > 0) {
        std::printf(
            "net: %llu connections, %llu requests, %llu framing "
            "rejects, %llu bytes in, %llu bytes out\n",
            static_cast<unsigned long long>(connections),
            static_cast<unsigned long long>(
                counterOf(m, "net.requests")),
            static_cast<unsigned long long>(
                counterOf(m, "net.framing_rejects")),
            static_cast<unsigned long long>(
                counterOf(m, "net.bytes_in")),
            static_cast<unsigned long long>(
                counterOf(m, "net.bytes_out")));
    }
    if (faultsArmed()) {
        std::printf("injected: %llu faults across %zu sites\n",
                    static_cast<unsigned long long>(
                        faultsInjected()),
                    faultStats().size());
        for (const FaultSiteStats &site : faultStats()) {
            if (site.fired > 0)
                std::printf("  %s: %llu/%llu\n",
                            site.site.c_str(),
                            static_cast<unsigned long long>(
                                site.fired),
                            static_cast<unsigned long long>(
                                site.hits));
        }
    }
    const auto *latency = m.findHistogram("serve.latency_ms");
    if (latency != nullptr && latency->hist.count > 0) {
        const obs::HistogramSnapshot &h = latency->hist;
        std::printf("latency: p50 %.3f ms, p90 %.3f ms, p99 %.3f "
                    "ms, max %.3f ms, mean %.3f ms (%llu samples)\n",
                    h.percentile(50), h.percentile(90),
                    h.percentile(99), h.maxMs, h.mean(),
                    static_cast<unsigned long long>(h.count));
    }

    const std::string text = obs::metricsToText(m);
    if (envInt("DMS_METRICS", 0, 0) > 0)
        std::fputs(text.c_str(), stdout);
    if (!metrics_out.empty())
        writeTextFile(metrics_out, text);
}

/**
 * Write this process's trace log to --trace-out as Chrome
 * trace_event JSON (spans only accumulate under DMS_TRACE=1).
 */
void
writeTraces(const std::string &trace_out)
{
    if (!trace_out.empty())
        writeTextFile(trace_out,
                      obs::tracesToJson(
                          obs::TraceLog::instance().traces()));
}

/** Shared request skeleton: current machine text and scheduler. */
struct RequestContext
{
    std::string machineText;
    std::string scheduler; ///< "" = auto

    CompileRequest
    request(const std::string &loop_text) const
    {
        CompileRequest req;
        req.loopText = loop_text;
        req.machineText = machineText;
        req.options.scheduler = scheduler;
        req.options.regalloc = true;
        return req;
    }
};

int
runScript(CompileService &service, const std::string &path,
          RequestContext rc)
{
    struct Pending
    {
        std::string label;
        CompileService::Ticket ticket;
    };
    std::vector<Pending> pending;

    int line_no = 0;
    int failures = 0;
    for (const std::string &raw : split(readFile(path), '\n')) {
        ++line_no;
        std::string line = trim(raw);
        if (line.empty() || line[0] == '#')
            continue;
        std::vector<std::string> f;
        for (const std::string &t : split(line, ' ')) {
            if (!t.empty())
                f.push_back(t);
        }
        // Dispatch on the directive name first so a wrong arity
        // gets a precise message instead of the generic "unknown
        // directive" the old arity-gated chain fell through to.
        auto wantArgs = [&](size_t n, const char *usage) {
            if (f.size() != n + 1)
                fatal("%s line %d: '%s' takes %zu argument%s "
                      "(usage: %s)",
                      path.c_str(), line_no, f[0].c_str(), n,
                      n == 1 ? "" : "s", usage);
        };
        if (f[0] == "machine") {
            wantArgs(1, "machine FILE");
            // Validate at directive time: a malformed description
            // used to be accepted here and only surface later as
            // per-request rejections (or not at all when no
            // compile followed).
            const std::string text = readFile(f[1]);
            MachineModel parsed = MachineModel::unclustered(1);
            std::string error;
            if (!machineFromText(text, parsed, error))
                fatal("%s line %d: bad machine '%s': %s",
                      path.c_str(), line_no, f[1].c_str(),
                      error.c_str());
            rc.machineText = text;
        } else if (f[0] == "sched") {
            wantArgs(1, "sched NAME|auto");
            rc.scheduler = f[1] == "auto" ? "" : f[1];
        } else if (f[0] == "compile") {
            wantArgs(1, "compile <loop file | kernel:NAME>");
            Loop loop;
            std::string error;
            if (!loadLoopSpec(f[1], loop, error))
                fatal("%s line %d: %s", path.c_str(), line_no,
                      error.c_str());
            Pending p;
            p.label = f[1];
            p.ticket = service.submit(rc.request(loopToText(loop)));
            pending.push_back(std::move(p));
        } else if (f[0] == "repeat") {
            wantArgs(2, "repeat N <loop file | kernel:NAME>");
            int n = 0;
            if (!parseInt(f[1], n) || n <= 0)
                fatal("%s line %d: bad repeat count '%s'",
                      path.c_str(), line_no, f[1].c_str());
            Loop loop;
            std::string error;
            if (!loadLoopSpec(f[2], loop, error))
                fatal("%s line %d: %s", path.c_str(), line_no,
                      error.c_str());
            std::string loop_text = loopToText(loop);
            for (int i = 0; i < n; ++i) {
                Pending p;
                p.label = strfmt("%s[%d]", f[2].c_str(), i);
                p.ticket = service.submit(rc.request(loop_text));
                pending.push_back(std::move(p));
            }
        } else {
            fatal("%s line %d: unknown directive '%s'",
                  path.c_str(), line_no, line.c_str());
        }
    }

    for (Pending &p : pending) {
        CompileService::ResultPtr result = p.ticket.future.get();
        const CompileStatus status = result->status;
        if (status == CompileStatus::Ok) {
            std::printf("%s: II=%d (MII=%d), SC=%d, %ld cycles "
                        "[%s]\n",
                        p.label.c_str(), result->run.ii,
                        result->run.mii, result->run.stageCount,
                        result->run.cycles,
                        sourceName(p.ticket.source));
            continue;
        }
        if (status == CompileStatus::Unschedulable)
            std::printf("%s: unschedulable (MII %d, no schedule)\n",
                        p.label.c_str(), result->run.mii);
        else
            std::printf("%s: %s (%s)\n", p.label.c_str(),
                        compileStatusName(status),
                        result->error.c_str());
        // Under an armed fault plan only Invalid fails the run,
        // as in the load modes.
        if (!faultsArmed() || status == CompileStatus::Invalid)
            ++failures;
    }
    return failures == 0 ? 0 : 1;
}

int
runLoadGenerator(CompileService &service, int total, int clients,
                 int hot_percent, std::uint64_t seed,
                 const RequestContext &rc,
                 const RetryPolicy &policy)
{
    // Hot set: the named kernels, zipf-weighted so a few kernels
    // dominate — the "hot kernels repeat" half of the mix. Cold
    // requests are fresh synthetic loops that never repeat (the
    // global request number keeps them unique across clients).
    std::vector<std::string> hot = hotKernelTexts();
    ZipfPicker zipf(hot.size());
    HammerResult res = hammerService(
        service, total, clients, rc.machineText, rc.scheduler,
        seed,
        [&](int i, Rng &rng) -> std::string {
            if (rng.range(1, 100) <= hot_percent)
                return hot[zipf.pick(rng)];
            return coldLoopText(seed, i);
        },
        policy);

    std::printf("load: %d requests from %d clients (%d%% hot mix)"
                ", %d failures, %d retries\n",
                res.requests, clients, hot_percent, res.failures,
                res.retries);
    std::printf("status: %d ok, %d unschedulable, %d invalid, "
                "%d failed, %d expired, %d rejected, "
                "%d quarantined\n",
                res.count(CompileStatus::Ok),
                res.count(CompileStatus::Unschedulable),
                res.count(CompileStatus::Invalid),
                res.count(CompileStatus::Failed),
                res.count(CompileStatus::Expired),
                res.count(CompileStatus::Rejected),
                res.count(CompileStatus::Quarantined));
    // Under an armed fault plan, fault-driven failures are the
    // point of the run: the daemon surviving them *is* the pass.
    // Invalid requests still fail the run — the mix generator
    // only emits well-formed requests, so any Invalid is a bug.
    if (faultsArmed())
        return res.count(CompileStatus::Invalid) == 0 ? 0 : 1;
    return res.failures == 0 ? 0 : 1;
}

/** SIGTERM/SIGINT flag for the --listen loop. */
volatile std::sig_atomic_t g_shutdown = 0;

void
onShutdownSignal(int)
{
    g_shutdown = 1;
}

int
runDaemon(CompileService &service, int port,
          const std::string &metrics_out,
          const std::string &trace_out)
{
    NetServerOptions nopts;
    nopts.port = port;
    NetServer server(service, nopts);
    std::string error;
    if (!server.start(error))
        fatal("listen: %s", error.c_str());
    std::printf("dmsd: listening on 127.0.0.1:%d\n",
                server.port());
    std::fflush(stdout);

    std::signal(SIGTERM, onShutdownSignal);
    std::signal(SIGINT, onShutdownSignal);
    while (g_shutdown == 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(50));
    }

    // Clean shutdown: stop accepting, finish in-flight request
    // lines, join every connection; the service destructor then
    // drains the compile queue. Exit 0 is the contract CI greps.
    server.stop();
    reportMetrics(server.metrics(), metrics_out);
    writeTraces(trace_out);
    return 0;
}

int
runNetworkLoadGenerator(const std::string &host, int port,
                        int total, int clients, int hot_percent,
                        std::uint64_t seed,
                        const RequestContext &rc,
                        const RetryPolicy &policy,
                        const std::string &metrics_out,
                        const std::string &trace_out)
{
    // The client knows about chaos runs through the same env knob
    // as the daemon (no CompileService here to arm it for us).
    armFaultsFromEnv();
    std::vector<std::string> hot = hotKernelTexts();
    ZipfPicker zipf(hot.size());
    HammerResult res = hammerNetwork(
        host, port, total, clients, rc.machineText, rc.scheduler,
        seed,
        [&](int i, Rng &rng) -> std::string {
            if (rng.range(1, 100) <= hot_percent)
                return hot[zipf.pick(rng)];
            return coldLoopText(seed, i);
        },
        policy);

    std::printf("load: %d requests from %d clients (%d%% hot mix)"
                ", %d failures, %d retries\n",
                res.requests, clients, hot_percent, res.failures,
                res.retries);
    std::printf("status: %d ok, %d unschedulable, %d invalid, "
                "%d failed, %d expired, %d rejected, "
                "%d quarantined\n",
                res.count(CompileStatus::Ok),
                res.count(CompileStatus::Unschedulable),
                res.count(CompileStatus::Invalid),
                res.count(CompileStatus::Failed),
                res.count(CompileStatus::Expired),
                res.count(CompileStatus::Rejected),
                res.count(CompileStatus::Quarantined));
    int resolved = 0;
    for (size_t st = 0; st < kCompileStatusCount; ++st)
        resolved += res.byStatus[st];
    std::printf("network: %d/%d requests terminal, %.1f rps, "
                "p50 %.3f ms, p99 %.3f ms\n",
                resolved, res.requests, res.rps(), res.p50Ms,
                res.p99Ms);

    // Pull the daemon's metrics over the wire, so the report
    // lines CI greps (and the --metrics-out artifact dmslint
    // audits) come from the server's counters, not the client's.
    // The trace body is empty unless the *daemon* runs under
    // DMS_TRACE=1.
    NetClient nc;
    std::string error;
    std::string text;
    obs::MetricsSnapshot snapshot;
    if (!nc.connect(host, port, 5000, error) ||
        !nc.fetchMetrics(text, error) ||
        !obs::metricsFromText(text, snapshot, error))
        warn("metrics fetch: %s", error.c_str());
    else
        reportMetrics(snapshot, metrics_out);
    if (!trace_out.empty() && nc.connected()) {
        if (!nc.fetchTrace(text, error))
            warn("trace fetch: %s", error.c_str());
        else
            writeTextFile(trace_out, text);
    }

    // Every dispatched request must have resolved to exactly one
    // terminal status — the invariant the chaos smoke asserts.
    if (resolved != res.requests)
        return 1;
    if (faultsArmed())
        return res.count(CompileStatus::Invalid) == 0 ? 0 : 1;
    return res.failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace dms;
    std::string script;
    std::string machine_file;
    std::string sched_name;
    int load = 0;
    int clients = 4;
    int workers = 0;
    int hot_percent = 75;
    int seed = 42;
    int listen_port = -1;
    std::string connect_to;
    RetryPolicy policy;
    std::string metrics_out;
    std::string trace_out;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("%s needs a value", a.c_str());
            return argv[++i];
        };
        auto nextInt = [&]() {
            std::string v = next();
            int out = 0;
            if (!parseInt(v, out))
                fatal("bad value '%s' for %s", v.c_str(),
                      a.c_str());
            return out;
        };
        if (a == "--script")
            script = next();
        else if (a == "--load")
            load = nextInt();
        else if (a == "--clients")
            clients = nextInt();
        else if (a == "--workers")
            workers = nextInt();
        else if (a == "--machine")
            machine_file = next();
        else if (a == "--sched")
            sched_name = next();
        else if (a == "--hot")
            hot_percent = nextInt();
        else if (a == "--seed")
            seed = nextInt();
        else if (a == "--retries")
            policy.maxAttempts = std::max(nextInt(), 1);
        else if (a == "--backoff-ms")
            policy.backoffBaseMs = nextInt();
        else if (a == "--deadline-ms")
            policy.deadlineMs = nextInt();
        else if (a == "--submit-wait-ms")
            policy.submitWaitMs = nextInt();
        else if (a == "--listen")
            listen_port = nextInt();
        else if (a == "--connect")
            connect_to = next();
        else if (a == "--metrics-out")
            metrics_out = next();
        else if (a == "--trace-out")
            trace_out = next();
        else
            fatal("unknown option '%s'", a.c_str());
    }
    if (listen_port >= 0) {
        if (!script.empty() || load != 0 || !connect_to.empty())
            fatal("--listen excludes --script/--load/--connect");
        if (listen_port > 65535)
            fatal("--listen port %d out of range", listen_port);
    } else if (!connect_to.empty()) {
        if (!script.empty() || load == 0)
            fatal("usage: dmsd [options] --connect HOST:PORT "
                  "--load N");
    } else if (script.empty() == (load == 0)) {
        fatal("usage: dmsd [options] --script FILE | --load N | "
              "--listen PORT | --connect HOST:PORT --load N");
    }

    // --machine/--sched seed every mode; script directives can
    // override them per request block.
    RequestContext rc;
    rc.machineText =
        !machine_file.empty()
            ? readFile(machine_file)
            : machineToText(MachineModel::clusteredRing(4));
    rc.scheduler = sched_name;

    if (!connect_to.empty()) {
        // Network client: no local service at all — the daemon on
        // the other end owns the workers, queue, and cache.
        const size_t colon = connect_to.rfind(':');
        int port = 0;
        if (colon == std::string::npos ||
            !parseInt(connect_to.substr(colon + 1), port) ||
            port <= 0 || port > 65535)
            fatal("bad --connect target '%s' (want HOST:PORT)",
                  connect_to.c_str());
        return runNetworkLoadGenerator(
            connect_to.substr(0, colon), port, load,
            std::max(clients, 1),
            std::clamp(hot_percent, 0, 100),
            static_cast<std::uint64_t>(seed), rc, policy,
            metrics_out, trace_out);
    }

    ServeOptions opts = ServeOptions::fromEnv();
    if (workers > 0)
        opts.workers = workers;
    CompileService service(opts);
    std::printf("dmsd: %d workers, queue depth %d, %d cache "
                "shards, capacity %d\n",
                service.workers(), opts.queueDepth, opts.shards,
                opts.cacheCapacity);

    if (listen_port >= 0)
        return runDaemon(service, listen_port, metrics_out,
                         trace_out);

    int code;
    if (!script.empty())
        code = runScript(service, script, std::move(rc));
    else
        code = runLoadGenerator(
            service, load, std::max(clients, 1),
            std::clamp(hot_percent, 0, 100),
            static_cast<std::uint64_t>(seed), rc, policy);
    reportMetrics(service.metrics(), metrics_out);
    writeTraces(trace_out);
    return code;
}
