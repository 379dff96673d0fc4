/**
 * @file
 * Compile-service throughput benchmark: hammers a CompileService
 * with a zipf-skewed request mix — a small hot set of kernels that
 * repeats and a churn of cold synthetic loops that never does —
 * and reports cold vs warm requests/sec, hit rate and latency
 * percentiles in BENCH_serve.json.
 *
 * Phases:
 *   cold   every request unique (fresh synth loops): the service
 *          at its worst, one full pipeline run per request;
 *   warm   the hot set replayed after priming: every request a
 *          cache hit;
 *   respelled  20000 fresh spellings of the primed hot set
 *          (respelledKernelText: comments, blank lines, spacing,
 *          remapped op ids): every request parses, canonicalises
 *          and keys its text, then hits the canonical entry —
 *          0 misses, asserted;
 *   mixed  the zipf mix from concurrent clients: the serving
 *          steady state, with hit rate and p50/p99 latency.
 *
 *   network the same mix through the TCP front-end (serve/net.h):
 *          a loopback NetServer on an ephemeral port, hammered by
 *          socket clients at several client counts — rps, hit
 *          rate, p50/p99 and mean request-line size per point,
 *          the b_eff-style sweep of the wire.
 *
 * Knobs: DMS_SUITE_COUNT (cold pool size, default 200),
 * DMS_SERVE_CLIENTS (client threads, default 4),
 * DMS_SERVE_MIN_SPEEDUP (gate: warm rps must be at least this
 * multiple of cold rps, default 10; the acceptance floor).
 *
 * Regression gate: when DMS_SERVE_BASELINE names a previous
 * BENCH_serve.json, the run fails (exit 1) if warm rps or respelled
 * rps drops more than DMS_SERVE_MAX_DROP percent (default 15) below
 * the baseline's; a phase the baseline lacks is skipped with a
 * warning. The CI perf-gate job runs merge-base and head back to
 * back and points this at the base run's file, mirroring
 * DMS_HOTPATH_BASELINE.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "eval/runner.h"
#include "machine/desc.h"
#include "obs/metrics.h"
#include "serve/loadgen.h"
#include "serve/net.h"
#include "serve/service.h"
#include "support/diag.h"
#include "support/faultinject.h"
#include "support/strings.h"
#include "workload/suite.h"
#include "workload/text.h"

namespace {

using namespace dms;

/** One network sweep point. */
struct NetPoint
{
    int clients = 0;
    int requests = 0;
    double rps = 0;
    double hitRate = 0;
    double p50Ms = 0;
    double p99Ms = 0;
    double msgBytes = 0; ///< mean request-line size on the wire
};

/** Counter @p name of @p m; 0 when the snapshot lacks it. */
std::uint64_t
counterOf(const obs::MetricsSnapshot &m, const char *name)
{
    const auto *c = m.findCounter(name);
    return c != nullptr ? c->value : 0;
}

/** How much counter @p name grew between two snapshots. */
std::uint64_t
counterDelta(const obs::MetricsSnapshot &before,
             const obs::MetricsSnapshot &after, const char *name)
{
    return counterOf(after, name) - counterOf(before, name);
}

/**
 * Extract @p phase's rps from a baseline BENCH_serve.json (string
 * scan; the file is our own single-line emission). Negative when
 * absent.
 */
double
baselineRps(const std::string &json, const char *phase)
{
    const size_t at = json.find(strfmt("\"%s\":{", phase));
    if (at == std::string::npos)
        return -1.0;
    const char *field = "\"rps\":";
    const size_t val = json.find(field, at);
    if (val == std::string::npos)
        return -1.0;
    return std::strtod(json.c_str() + val + std::strlen(field),
                       nullptr);
}

int
maxDropPercentFromEnv()
{
    const char *s = std::getenv("DMS_SERVE_MAX_DROP");
    if (s == nullptr)
        return 15;
    int v = 0;
    if (!parseInt(s, v) || v >= 100) {
        warn("DMS_SERVE_MAX_DROP='%s' is not a percentage below "
             "100; using 15",
             s);
        return 15;
    }
    return v;
}

} // namespace

int
main()
{
    using namespace dms;
    const int cold_pool = suiteCountFromEnv(200);
    const int clients = envInt("DMS_SERVE_CLIENTS", 4);
    const int min_speedup = envInt("DMS_SERVE_MIN_SPEEDUP", 10);
    constexpr std::uint64_t kSeed = 0x5e7e5e7eULL;

    const std::string machine_text =
        machineToText(MachineModel::clusteredRing(4));

    // Cold pool: unique synthetic loops, serialized up front so
    // the timed phases measure the service, not the generator.
    std::vector<std::string> cold_texts;
    cold_texts.reserve(static_cast<size_t>(cold_pool));
    for (int i = 0; i < cold_pool; ++i)
        cold_texts.push_back(coldLoopText(kSeed, i));

    // Hot set: the named kernels under zipf weights (rank^-1.1).
    const std::vector<std::string> hot_texts = hotKernelTexts();
    const ZipfPicker zipf(hot_texts.size());

    std::printf("serve_throughput: %zu cold loops, %zu hot "
                "kernels, %d clients\n",
                cold_texts.size(), hot_texts.size(), clients);

    // --- cold: every request unique, a fresh service ------------
    const int cold_requests = static_cast<int>(cold_texts.size());
    double cold_rps = 0;
    {
        CompileService service;
        HammerResult cold = hammerService(
            service, cold_requests, clients, machine_text, "dms",
            kSeed, [&](int i, Rng &) -> std::string {
                return cold_texts[static_cast<size_t>(i)];
            });
        const std::uint64_t hits =
            counterOf(service.metrics(), "serve.hits");
        DMS_ASSERT(hits == 0, "cold phase hit the cache (%llu)",
                   static_cast<unsigned long long>(hits));
        cold_rps = cold.rps();
        std::printf("cold: %d requests in %.3f s = %.0f req/s\n",
                    cold.requests, cold.seconds, cold_rps);
    }

    // --- warm + mixed share a service ---------------------------
    CompileService service;

    // Prime the hot set, then replay: every timed request a hit.
    for (const std::string &t : hot_texts) {
        CompileRequest req;
        req.loopText = t;
        req.machineText = machine_text;
        req.options.scheduler = "dms";
        req.options.regalloc = true;
        service.compile(req);
    }
    const int warm_requests = std::max(2000, cold_requests * 4);
    HammerResult warm = hammerService(
        service, warm_requests, clients, machine_text, "dms",
        kSeed + 1, [&](int, Rng &rng) -> std::string {
            return hot_texts[zipf.pick(rng)];
        });
    double warm_rps = warm.rps();
    std::printf("warm: %d requests in %.3f s = %.0f req/s "
                "(%.1fx cold)\n",
                warm.requests, warm.seconds, warm_rps,
                warm_rps / cold_rps);

    // --- respelled: fresh spellings of the primed hot set --------
    // Generated up front so the phase times the service's parse,
    // canonicalisation and keying, not the generator.
    constexpr int kRespelledRequests = 20000;
    std::vector<std::string> respelled_texts;
    respelled_texts.reserve(kRespelledRequests);
    {
        Rng rng(kSeed + 3);
        for (int i = 0; i < kRespelledRequests; ++i) {
            respelled_texts.push_back(respelledKernelText(
                hot_texts[zipf.pick(rng)], rng));
        }
    }
    const obs::MetricsSnapshot before_respelled = service.metrics();
    HammerResult respelled = hammerService(
        service, kRespelledRequests, clients, machine_text, "dms",
        kSeed + 3, [&](int i, Rng &) -> std::string {
            return respelled_texts[static_cast<size_t>(i)];
        });
    const std::uint64_t respelled_misses = counterDelta(
        before_respelled, service.metrics(), "serve.misses");
    DMS_ASSERT(respelled_misses == 0,
               "respelled phase missed the cache (%llu)",
               static_cast<unsigned long long>(respelled_misses));
    const double respelled_rps = respelled.rps();
    std::printf("respelled: %d requests in %.3f s = %.0f req/s, "
                "p50 %.3f ms, p99 %.3f ms\n",
                respelled.requests, respelled.seconds, respelled_rps,
                respelled.p50Ms, respelled.p99Ms);

    // --- mixed: the zipf steady state with cold churn -----------
    // Phase-local numbers: hit rate from the counter deltas across
    // the hammer, latency percentiles measured client-side inside
    // it — the service's own metrics span its whole lifetime
    // (prime + warm included) and would overstate both.
    const obs::MetricsSnapshot before = service.metrics();
    const int mixed_requests = cold_requests * 2;
    HammerResult mixed_run = hammerService(
        service, mixed_requests, clients, machine_text, "dms",
        kSeed + 2, [&](int i, Rng &rng) -> std::string {
            if (rng.range(1, 100) <= 75)
                return hot_texts[zipf.pick(rng)];
            return coldLoopText(kSeed ^ 0xc01dULL, i);
        });
    const obs::MetricsSnapshot after = service.metrics();
    const std::uint64_t mixed_coalesced =
        counterDelta(before, after, "serve.coalesced");
    const std::uint64_t mixed_hits =
        counterDelta(before, after, "serve.hits") + mixed_coalesced;
    const double mixed_hit_rate =
        static_cast<double>(mixed_hits) /
        static_cast<double>(mixed_requests);
    double mixed_rps = mixed_run.rps();
    std::printf("mixed: %d requests in %.3f s = %.0f req/s, "
                "hit rate %.1f%%, %llu coalesced, p50 %.3f ms, "
                "p99 %.3f ms\n",
                mixed_run.requests, mixed_run.seconds, mixed_rps,
                mixed_hit_rate * 100.0,
                static_cast<unsigned long long>(mixed_coalesced),
                mixed_run.p50Ms, mixed_run.p99Ms);

    // --- degraded: the chaos regime, measured not feared --------
    // A fresh service with a deliberately small queue, faults
    // armed at the serve and pipeline sites, clients running the
    // full retry/shed/deadline loop — the b_eff philosophy:
    // overloaded operation is a measured regime, not an error.
    double degraded_rps = 0;
    double shed_rate = 0;
    std::uint64_t injected = 0;
    HammerResult degraded;
    obs::MetricsSnapshot degraded_metrics;
    {
        ServeOptions dopts;
        dopts.queueDepth = 8;
        CompileService dservice(dopts);
        FaultPlan plan;
        std::string perr;
        bool plan_ok = plan.parse(
            "serve.worker.compile:0.15:1337,pipeline.*:0.05:42",
            perr);
        DMS_ASSERT(plan_ok, "bad bench fault plan: %s",
                   perr.c_str());
        RetryPolicy rp;
        rp.maxAttempts = 3;
        rp.backoffBaseMs = 1;
        rp.backoffMaxMs = 8;
        rp.submitWaitMs = 1;
        armFaults(std::move(plan));
        degraded = hammerService(
            dservice, mixed_requests, clients, machine_text,
            "dms", kSeed + 3,
            [&](int i, Rng &rng) -> std::string {
                if (rng.range(1, 100) <= 75)
                    return hot_texts[zipf.pick(rng)];
                return coldLoopText(kSeed ^ 0xfa017ULL, i);
            },
            rp);
        injected = faultsInjected();
        disarmFaults();
        degraded_metrics = dservice.metrics();
        degraded_rps = degraded.rps();
        const std::uint64_t requests =
            counterOf(degraded_metrics, "serve.requests");
        shed_rate =
            requests > 0
                ? static_cast<double>(
                      counterOf(degraded_metrics, "serve.shed")) /
                      static_cast<double>(requests)
                : 0.0;
        std::printf(
            "degraded: %d requests in %.3f s = %.0f req/s, "
            "%llu injected, shed rate %.1f%%, %d retries, "
            "p99 %.3f ms\n",
            degraded.requests, degraded.seconds, degraded_rps,
            static_cast<unsigned long long>(injected),
            shed_rate * 100.0, degraded.retries, degraded.p99Ms);
    }

    // --- network: the same mix through the TCP front-end --------
    // One loopback daemon, swept over client counts; hit rate and
    // mean request-line size come from the server's own counter
    // deltas, latency is measured client-side per round trip.
    std::vector<NetPoint> net_points;
    {
        CompileService nservice;
        NetServer server(nservice);
        std::string nerr;
        bool net_up = server.start(nerr);
        DMS_ASSERT(net_up, "network phase: %s", nerr.c_str());
        const int sweep[] = {1, std::max(clients, 2)};
        const int net_requests = std::max(400, cold_requests);
        for (size_t pt = 0; pt < 2; ++pt) {
            const int nc = sweep[pt];
            const obs::MetricsSnapshot before = server.metrics();
            HammerResult run = hammerNetwork(
                "127.0.0.1", server.port(), net_requests, nc,
                machine_text, "dms",
                kSeed + 40 + static_cast<std::uint64_t>(nc),
                [&](int i, Rng &rng) -> std::string {
                    if (rng.range(1, 100) <= 75)
                        return hot_texts[zipf.pick(rng)];
                    return coldLoopText(
                        kSeed ^ (0xbeefULL + pt), i);
                });
            const obs::MetricsSnapshot after = server.metrics();
            NetPoint point;
            point.clients = nc;
            point.requests = run.requests;
            point.rps = run.rps();
            point.hitRate =
                static_cast<double>(
                    counterDelta(before, after, "serve.hits") +
                    counterDelta(before, after, "serve.coalesced")) /
                static_cast<double>(std::max(run.requests, 1));
            point.p50Ms = run.p50Ms;
            point.p99Ms = run.p99Ms;
            const std::uint64_t line_count =
                counterDelta(before, after, "net.requests");
            point.msgBytes =
                line_count > 0
                    ? static_cast<double>(counterDelta(
                          before, after, "net.bytes_in")) /
                          static_cast<double>(line_count)
                    : 0.0;
            std::printf(
                "network: %d clients, %d requests in %.3f s = "
                "%.0f req/s, hit rate %.1f%%, p50 %.3f ms, "
                "p99 %.3f ms, %.0f B/req\n",
                nc, run.requests, run.seconds, point.rps,
                point.hitRate * 100.0, point.p50Ms, point.p99Ms,
                point.msgBytes);
            net_points.push_back(point);
        }
        server.stop();
    }

    std::string json = "{";
    json += "\"bench\":\"serve_throughput\",";
    json += strfmt("\"clients\":%d,", clients);
    json += strfmt("\"workers\":%d,", service.workers());
    json += strfmt("\"hot_kernels\":%zu,", hot_texts.size());
    json += strfmt("\"cold\":{\"requests\":%d,\"rps\":%.1f},",
                   cold_requests, cold_rps);
    json += strfmt("\"warm\":{\"requests\":%d,\"rps\":%.1f},",
                   warm.requests, warm_rps);
    json += strfmt("\"respelled\":{\"requests\":%d,\"rps\":%.1f,"
                   "\"p50_ms\":%.4f,\"p99_ms\":%.4f},",
                   respelled.requests, respelled_rps, respelled.p50Ms,
                   respelled.p99Ms);
    json += strfmt(
        "\"mixed\":{\"requests\":%d,\"rps\":%.1f,"
        "\"hit_rate\":%.4f,\"coalesced\":%llu,"
        "\"p50_ms\":%.4f,\"p90_ms\":%.4f,\"p99_ms\":%.4f},",
        mixed_run.requests, mixed_rps, mixed_hit_rate,
        static_cast<unsigned long long>(mixed_coalesced),
        mixed_run.p50Ms, mixed_run.p90Ms, mixed_run.p99Ms);
    json += strfmt(
        "\"degraded\":{\"requests\":%d,\"rps\":%.1f,"
        "\"p50_ms\":%.4f,\"p99_ms\":%.4f,\"shed_rate\":%.4f,"
        "\"injected\":%llu,\"failed\":%llu,\"expired\":%llu,"
        "\"quarantined\":%llu,\"retries\":%d},",
        degraded.requests, degraded_rps, degraded.p50Ms,
        degraded.p99Ms, shed_rate,
        static_cast<unsigned long long>(injected),
        static_cast<unsigned long long>(
            counterOf(degraded_metrics, "serve.failed")),
        static_cast<unsigned long long>(
            counterOf(degraded_metrics, "serve.expired")),
        static_cast<unsigned long long>(
            counterOf(degraded_metrics, "serve.quarantined")),
        degraded.retries);
    json += "\"network\":[";
    for (size_t pt = 0; pt < net_points.size(); ++pt) {
        const NetPoint &p = net_points[pt];
        json += strfmt(
            "%s{\"clients\":%d,\"requests\":%d,\"rps\":%.1f,"
            "\"hit_rate\":%.4f,\"p50_ms\":%.4f,\"p99_ms\":%.4f,"
            "\"msg_bytes\":%.1f}",
            pt == 0 ? "" : ",", p.clients, p.requests, p.rps,
            p.hitRate, p.p50Ms, p.p99Ms, p.msgBytes);
    }
    json += "],";
    json += strfmt("\"warm_vs_cold\":%.1f}",
                   warm_rps / cold_rps);

    const char *path = "BENCH_serve.json";
    std::FILE *f = std::fopen(path, "w");
    if (f == nullptr) {
        warn("cannot write %s", path);
        return 1;
    }
    std::fputs(json.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    inform("wrote %s", path);

    if (warm_rps < cold_rps * min_speedup) {
        std::fprintf(stderr,
                     "FAIL: warm %.0f req/s is below %dx cold "
                     "%.0f req/s\n",
                     warm_rps, min_speedup, cold_rps);
        return 1;
    }
    std::printf("gate: warm/cold = %.1fx (>= %dx) ok\n",
                warm_rps / cold_rps, min_speedup);

    // Relative gate against a previous run of this bench (the CI
    // perf-gate job builds the merge base in a worktree, runs it,
    // and points DMS_SERVE_BASELINE at its BENCH_serve.json).
    if (const char *bp = std::getenv("DMS_SERVE_BASELINE")) {
        std::ifstream in(bp);
        if (!in) {
            warn("DMS_SERVE_BASELINE '%s' unreadable; skipping "
                 "gate",
                 bp);
            return 0;
        }
        std::stringstream ss;
        ss << in.rdbuf();
        const int max_drop = maxDropPercentFromEnv();
        bool dropped = false;
        const struct
        {
            const char *phase;
            double rps;
        } gated[] = {{"warm", warm_rps}, {"respelled", respelled_rps}};
        for (const auto &g : gated) {
            const double base = baselineRps(ss.str(), g.phase);
            if (base <= 0) {
                warn("baseline has no %s rps; skipping its gate",
                     g.phase);
                continue;
            }
            const double floor = base * (100 - max_drop) / 100.0;
            if (g.rps < floor) {
                std::fprintf(stderr,
                             "FAIL: %s %.0f req/s is more than "
                             "%d%% below baseline %.0f (floor "
                             "%.0f)\n",
                             g.phase, g.rps, max_drop, base, floor);
                dropped = true;
            } else {
                std::printf("gate: %s %.0f req/s vs baseline %.0f "
                            "(floor %.0f) ok\n",
                            g.phase, g.rps, base, floor);
            }
        }
        if (dropped)
            return 1;
    }
    return 0;
}
