/**
 * @file
 * Fault-tolerance tests: the deterministic fault-injection plan
 * (grammar, per-site firing determinism, wildcard matching, fault
 * kinds), the hardened compile service under chaos (every request
 * one terminal status, the daemon never dies), quarantine of
 * poisoned keys with half-open probing, deadline expiry and its
 * accounting on every client path, load shedding through
 * compile()'s queue wait, the outcome counters against the result
 * statuses, and a fuzz of the result cache's eviction/retirement
 * accounting against its conservation law.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analyze.h"
#include "machine/desc.h"
#include "obs/metrics.h"
#include "requests.h"
#include "serve/cache.h"
#include "serve/loadgen.h"
#include "serve/net.h"
#include "serve/service.h"
#include "support/faultinject.h"
#include "support/rng.h"
#include "support/strings.h"
#include "workload/suite.h"
#include "workload/text.h"

namespace dms {
namespace {

/** Disarm on scope exit so one test cannot poison the next. */
struct FaultGuard
{
    ~FaultGuard() { disarmFaults(); }
};

/** Canonical request for one named kernel on the paper's ring. */
CompileRequest
kernelRequest(const char *kernel)
{
    Loop loop;
    std::string error;
    EXPECT_TRUE(loadLoopSpec(
        (std::string("kernel:") + kernel).c_str(), loop, error))
        << error;
    PipelineOptions po;
    po.scheduler = "dms";
    po.regalloc = true;
    po.codegen = true;
    return makeRequest(loop, MachineModel::clusteredRing(4), po);
}

/** @p service's counter @p name; a missing counter fails the test. */
std::uint64_t
counter(const CompileService &service, const char *name)
{
    const obs::MetricsSnapshot snap = service.metrics();
    const auto *c = snap.findCounter(name);
    EXPECT_NE(c, nullptr) << name;
    return c != nullptr ? c->value : 0;
}

/** The final metrics snapshot must satisfy the lint identities. */
void
expectMetricsConsistent(const CompileService &service,
                        const char *label)
{
    DiagnosticSink sink;
    lintMetricsText(obs::metricsToText(service.metrics()), label,
                    sink);
    EXPECT_EQ(sink.renderText(), "") << label;
}

// --- plan grammar ------------------------------------------------------

TEST(FaultPlan, ParsesTheDocumentedGrammar)
{
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(plan.parse(
        "serve.worker.compile:0.25:1337,"
        "pipeline.*:1:42:cancel, serve.queue.push:0.5:7:error ,"
        "pipeline.unroll:0.125:9:delay=250",
        error))
        << error;
    ASSERT_EQ(plan.specs().size(), 4u);
    EXPECT_EQ(plan.specs()[0].site, "serve.worker.compile");
    EXPECT_DOUBLE_EQ(plan.specs()[0].rate, 0.25);
    EXPECT_EQ(plan.specs()[0].seed, 1337u);
    EXPECT_EQ(plan.specs()[0].kind, FaultKind::Error);
    EXPECT_EQ(plan.specs()[1].site, "pipeline.*");
    EXPECT_EQ(plan.specs()[1].kind, FaultKind::Cancel);
    EXPECT_EQ(plan.specs()[2].kind, FaultKind::Error);
    EXPECT_EQ(plan.specs()[3].kind, FaultKind::Delay);
    EXPECT_EQ(plan.specs()[3].delayMicros, 250);

    // Empty entries are tolerated; an empty plan text is legal.
    FaultPlan empty;
    EXPECT_TRUE(empty.parse("", error));
    EXPECT_TRUE(empty.parse(" , ,", error));
    EXPECT_TRUE(empty.empty());
}

TEST(FaultPlan, RejectsMalformedSpecsWithoutPartialAppend)
{
    const char *bad[] = {
        "site",                    // too few fields
        "site:0.5",                // still too few
        "site:0.5:1:error:extra",  // too many
        ":0.5:1",                  // empty site
        "site:2:1",                // rate out of [0,1]
        "site:-0.5:1",             // negative rate
        "site:frog:1",             // unparsable rate
        "site:0.5:banana",         // unparsable seed
        "site:0.5:1:bogus",        // unknown kind
        "site:0.5:1:delay=x",      // unparsable delay
    };
    for (const char *text : bad) {
        FaultPlan plan;
        std::string error;
        // A good leading entry must not survive the bad one.
        const std::string combined =
            std::string("good.site:0.5:1,") + text;
        EXPECT_FALSE(plan.parse(combined, error)) << text;
        EXPECT_FALSE(error.empty()) << text;
        EXPECT_TRUE(plan.empty()) << text;
    }
}

// --- firing semantics --------------------------------------------------

TEST(FaultPoint, FreeAndInertWhenDisarmed)
{
    ASSERT_FALSE(faultsArmed());
    EXPECT_NO_THROW(faultPoint("anything.at.all"));
    EXPECT_TRUE(faultStats().empty());
    EXPECT_EQ(faultsInjected(), 0u);
}

TEST(FaultPoint, FiringIsDeterministicPerSiteAndHitIndex)
{
    FaultGuard guard;
    FaultPlan plan;
    plan.add({"determinism.site", 0.37, 99, FaultKind::Error, 0});

    auto pattern = [&]() {
        std::vector<bool> fired;
        for (int i = 0; i < 2000; ++i) {
            bool f = false;
            try {
                faultPoint("determinism.site");
            } catch (const InjectedFault &e) {
                EXPECT_EQ(e.site(), "determinism.site");
                f = true;
            }
            fired.push_back(f);
        }
        return fired;
    };

    armFaults(plan);
    const std::vector<bool> first = pattern();
    const std::uint64_t injected_first = faultsInjected();
    disarmFaults();
    armFaults(plan); // counters reset, same seed
    const std::vector<bool> second = pattern();

    EXPECT_EQ(first, second);
    EXPECT_EQ(faultsInjected(), injected_first);
    const size_t count = static_cast<size_t>(
        std::count(first.begin(), first.end(), true));
    // ~37% of 2000; a deterministic draw, loosely bracketed.
    EXPECT_GT(count, 500u);
    EXPECT_LT(count, 1200u);

    ASSERT_EQ(faultStats().size(), 1u);
    EXPECT_EQ(faultStats()[0].site, "determinism.site");
    EXPECT_EQ(faultStats()[0].hits, 2000u);
    EXPECT_EQ(faultStats()[0].fired, count);
}

TEST(FaultPoint, RateEndpointsAndKinds)
{
    FaultGuard guard;
    FaultPlan plan;
    plan.add({"never.site", 0.0, 1, FaultKind::Error, 0});
    plan.add({"always.site", 1.0, 2, FaultKind::Error, 0});
    plan.add({"cancel.site", 1.0, 3, FaultKind::Cancel, 0});
    plan.add({"delay.site", 1.0, 4, FaultKind::Delay, 20000});
    armFaults(plan);

    // Rate 0 armed behaves like disarmed (but is observed).
    for (int i = 0; i < 100; ++i)
        EXPECT_NO_THROW(faultPoint("never.site"));
    EXPECT_THROW(faultPoint("always.site"), InjectedFault);
    EXPECT_THROW(faultPoint("cancel.site"), CancelledError);

    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_NO_THROW(faultPoint("delay.site"));
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_GE(ms, 10.0); // 20 ms sleep, generous lower bound

    for (const FaultSiteStats &s : faultStats()) {
        if (s.site == "never.site") {
            EXPECT_EQ(s.hits, 100u);
            EXPECT_EQ(s.fired, 0u);
        }
    }
}

TEST(FaultPoint, PrefixWildcardsFirstMatchWins)
{
    FaultGuard guard;
    FaultPlan plan;
    plan.add({"pipeline.mii", 1.0, 1, FaultKind::Cancel, 0});
    plan.add({"pipeline.*", 1.0, 2, FaultKind::Error, 0});
    armFaults(plan);

    // The specific entry shadows the wildcard behind it.
    EXPECT_THROW(faultPoint("pipeline.mii"), CancelledError);
    EXPECT_THROW(faultPoint("pipeline.schedule"), InjectedFault);
    EXPECT_NO_THROW(faultPoint("serve.queue.push"));

    disarmFaults();
    FaultPlan all;
    all.add({"*", 1.0, 3, FaultKind::Error, 0});
    armFaults(all);
    EXPECT_THROW(faultPoint("anything"), InjectedFault);
}

// --- service under faults ----------------------------------------------

TEST(Faults, NoFaultAndRateZeroRunsBitIdentical)
{
    // Baseline: a never-armed service.
    CompileRequest req = kernelRequest("fir8");
    ServeOptions so;
    so.workers = 2;
    CompileService::ResultPtr base;
    {
        CompileService service(so);
        base = service.compile(req);
        ASSERT_TRUE(base->ok);
    }

    // A rate-0 plan armed across every site must not change a bit.
    FaultGuard guard;
    FaultPlan inert;
    inert.add({"*", 0.0, 7, FaultKind::Error, 0});
    armFaults(inert);
    {
        CompileService service(so);
        CompileService::ResultPtr armed = service.compile(req);
        ASSERT_TRUE(armed->ok);
        EXPECT_TRUE(armed->run == base->run);
        EXPECT_EQ(armed->kernelText, base->kernelText);
    }
    EXPECT_EQ(faultsInjected(), 0u); // observed but never fired
    disarmFaults();

    // After a chaos episode and disarm, a fresh service is again
    // bit-identical to the never-faulted baseline.
    FaultPlan chaos;
    chaos.add({"serve.worker.compile", 0.5, 11, FaultKind::Error,
               0});
    armFaults(chaos);
    {
        CompileService service(so);
        for (int i = 0; i < 8; ++i)
            service.compile(req); // some fail, some succeed
    }
    disarmFaults();
    {
        CompileService service(so);
        CompileService::ResultPtr after = service.compile(req);
        ASSERT_TRUE(after->ok);
        EXPECT_TRUE(after->run == base->run);
        EXPECT_EQ(after->kernelText, base->kernelText);
    }
}

/**
 * The chaos hammer: eight clients drive the mixed hot/cold zipf
 * load while every fault site is armed at 10-30%. The service must
 * neither crash nor hang, every request must reach exactly one
 * terminal status, and the final counters must satisfy the
 * obs.metrics-consistency identities.
 */
TEST(Faults, ChaosHammerEveryRequestOneTerminalStatus)
{
    FaultGuard guard;
    FaultPlan plan;
    plan.add({"serve.cache.lookup", 0.10, 101, FaultKind::Error,
              0});
    plan.add({"serve.cache.insert", 0.10, 102, FaultKind::Error,
              0});
    plan.add({"serve.queue.push", 0.15, 103, FaultKind::Error, 0});
    plan.add({"serve.worker.compile", 0.20, 104, FaultKind::Error,
              0});
    plan.add({"pipeline.unroll", 0.15, 105, FaultKind::Delay,
              200});
    plan.add({"pipeline.schedule", 0.10, 106, FaultKind::Cancel,
              0});
    plan.add({"pipeline.*", 0.10, 107, FaultKind::Error, 0});
    armFaults(plan);

    ServeOptions so;
    so.workers = 4;
    so.queueDepth = 16;
    CompileService service(so);

    RetryPolicy policy;
    policy.maxAttempts = 3;
    policy.backoffBaseMs = 1;
    policy.backoffMaxMs = 4;
    policy.deadlineMs = 5000;
    policy.submitWaitMs = 2;

    const std::string machine_text =
        machineToText(MachineModel::clusteredRing(4));
    std::vector<std::string> hot = hotKernelTexts();
    ZipfPicker zipf(hot.size());
    constexpr int kTotal = 160;
    HammerResult res = hammerService(
        service, kTotal, /*clients=*/8, machine_text, "dms",
        0xc4a05ULL, [&](int i, Rng &rng) -> std::string {
            if (rng.range(1, 100) <= 75)
                return hot[zipf.pick(rng)];
            return coldLoopText(0xc4a05ULL, i);
        },
        policy);

    // Exactly one terminal status per request, none Invalid (the
    // generator only emits well-formed requests).
    int sum = 0;
    for (int s = 0; s < 7; ++s)
        sum += res.byStatus[s];
    EXPECT_EQ(sum, kTotal);
    EXPECT_EQ(res.count(CompileStatus::Invalid), 0);
    EXPECT_GT(res.count(CompileStatus::Ok), 0);
    EXPECT_GT(faultsInjected(), 0u);

    EXPECT_GE(counter(service, "serve.requests"),
              static_cast<std::uint64_t>(kTotal));
    expectMetricsConsistent(service, "chaos");

    // The daemon survived: with the plan disarmed (workers idle —
    // every future above resolved), service compiles cleanly.
    disarmFaults();
    CompileService::ResultPtr after =
        service.compile(kernelRequest("daxpy"));
    EXPECT_TRUE(after->ok) << after->error;
}

TEST(Faults, QuarantineTriggersThenProbeClears)
{
    FaultGuard guard;
    ServeOptions so;
    so.workers = 1;
    so.quarantineAfter = 2;
    so.quarantineProbe = 2;
    CompileService service(so);
    const CompileRequest req = kernelRequest("horner");

    FaultPlan plan;
    plan.add({"serve.worker.compile", 1.0, 5, FaultKind::Error,
              0});
    armFaults(plan);

    // Two consecutive failures poison the key...
    for (int i = 0; i < 2; ++i) {
        CompileService::ResultPtr r = service.compile(req);
        EXPECT_EQ(r->status, CompileStatus::Failed) << i;
        EXPECT_EQ(r->failSite, "serve.worker.compile");
    }
    // ...and the next submits are rejected without compiling.
    for (int i = 0; i < 2; ++i) {
        CompileService::ResultPtr r = service.compile(req);
        EXPECT_EQ(r->status, CompileStatus::Quarantined) << i;
    }
    EXPECT_EQ(counter(service, "serve.quarantined"), 2u);

    // After quarantineProbe rejections, one half-open probe goes
    // through; with the fault gone it succeeds and clears the key.
    disarmFaults();
    CompileService::ResultPtr probe = service.compile(req);
    EXPECT_EQ(probe->status, CompileStatus::Ok) << probe->error;

    CompileService::Ticket warm = service.submit(req);
    EXPECT_EQ(warm.source, CompileService::Source::Hit);
    EXPECT_EQ(warm.future.get()->status, CompileStatus::Ok);
    expectMetricsConsistent(service, "quarantine");
}

TEST(Faults, DeadlineExpiresAndKeyRetriesAfterwards)
{
    FaultGuard guard;
    FaultPlan plan;
    // 30 ms per stage boundary: the compile cannot finish inside
    // the 50 ms budget, so the worker's cancel poll must fire.
    plan.add({"pipeline.*", 1.0, 8, FaultKind::Delay, 30000});
    armFaults(plan);

    ServeOptions so;
    so.workers = 1;
    CompileService service(so);
    CompileRequest req = kernelRequest("daxpy");
    req.deadlineMs = 50;

    CompileService::Ticket ticket = service.submit(req);
    EXPECT_EQ(ticket.source, CompileService::Source::Miss);
    ASSERT_NE(ticket.cancel, nullptr);
    CompileService::ResultPtr r = ticket.future.get();
    EXPECT_EQ(r->status, CompileStatus::Expired);
    EXPECT_TRUE(r->parsed);
    EXPECT_GE(counter(service, "serve.expired"), 1u);

    // The expired entry was retired: the key retries (a fresh
    // miss, not a hit on a dead entry) and now succeeds.
    disarmFaults();
    req.deadlineMs = 0;
    CompileService::Ticket again = service.submit(req);
    EXPECT_EQ(again.source, CompileService::Source::Miss);
    EXPECT_EQ(again.future.get()->status, CompileStatus::Ok);
    expectMetricsConsistent(service, "deadline");
}

TEST(Faults, CompileShedsWhenTheQueueStaysFull)
{
    FaultGuard guard;
    FaultPlan plan;
    // Park the single worker for 300 ms per compile.
    plan.add({"serve.worker.compile", 1.0, 6, FaultKind::Delay,
              300000});
    armFaults(plan);

    ServeOptions so;
    so.workers = 1;
    so.queueDepth = 1;
    so.shards = 1;
    CompileService service(so);
    auto request = [](int i) {
        CompileRequest req;
        req.loopText = coldLoopText(0x5ed5ULL, i);
        req.machineText = machineToText(MachineModel::clusteredRing(4));
        req.options.scheduler = "dms";
        req.options.regalloc = true;
        return req;
    };

    // Park the worker first, so the queue's one slot is all the
    // callers below can get.
    constexpr int kCallers = 4;
    CompileService::Ticket parked = service.submit(request(kCallers));
    for (;;) {
        const obs::MetricsSnapshot snap = service.metrics();
        const auto *depth = snap.findGauge("serve.queue_depth");
        ASSERT_NE(depth, nullptr);
        if (depth->value == 0.0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    // Four callers released together, each shedding at once.
    std::vector<CompileService::ResultPtr> results(kCallers);
    std::atomic<int> ready{0};
    std::vector<std::thread> callers;
    for (int i = 0; i < kCallers; ++i) {
        callers.emplace_back([&, i] {
            const CompileRequest req = request(i);
            ready.fetch_add(1);
            while (ready.load() < kCallers)
                std::this_thread::yield();
            results[static_cast<size_t>(i)] =
                service.compile(req, /*maxWaitMs=*/0);
        });
    }
    for (std::thread &t : callers)
        t.join();
    EXPECT_EQ(parked.future.get()->status, CompileStatus::Ok);

    int shed = 0;
    int compiled = 0;
    for (const CompileService::ResultPtr &r : results) {
        if (r->status == CompileStatus::Rejected) {
            ++shed;
            EXPECT_NE(r->error.find("queue full"),
                      std::string::npos);
        } else {
            ++compiled;
            EXPECT_EQ(r->status, CompileStatus::Ok) << r->error;
        }
    }
    // The worker holds the parked job and the queue one caller's;
    // the first to reach the empty queue is never shed, and at
    // least two of the rest are even if one outlives the park.
    EXPECT_GE(shed, 2);
    EXPECT_GE(compiled, 1);

    EXPECT_EQ(counter(service, "serve.shed"),
              static_cast<std::uint64_t>(shed));
    const obs::MetricsSnapshot snap = service.metrics();
    const auto *degraded = snap.findGauge("serve.degraded");
    ASSERT_NE(degraded, nullptr);
    EXPECT_EQ(degraded->value, 1.0);
    expectMetricsConsistent(service, "shed");
    disarmFaults();
}

/**
 * Each outcome counter equals the number of results with its
 * status. Unique cold loops give no hits and no coalescing, and
 * without a deadline no caller gives up early, so every request
 * resolves exactly once: the fault boundary on the submit path and
 * in the worker, the shed path, and the compiles that succeed.
 */
TEST(Faults, OutcomeCountersMatchResultStatuses)
{
    FaultGuard guard;
    FaultPlan plan;
    // Listed first, so it wins over pipeline.* below: every
    // compile holds the one worker for 2 ms and the queue fills.
    plan.add({"pipeline.unroll", 1.0, 31, FaultKind::Delay, 2000});
    plan.add({"serve.cache.lookup", 0.1, 32, FaultKind::Error, 0});
    plan.add({"serve.cache.insert", 0.1, 33, FaultKind::Error, 0});
    plan.add({"serve.queue.push", 0.1, 34, FaultKind::Cancel, 0});
    plan.add({"serve.worker.compile", 0.1, 35, FaultKind::Error,
              0});
    plan.add({"pipeline.*", 0.1, 36, FaultKind::Cancel, 0});
    armFaults(plan);

    ServeOptions so;
    so.workers = 1;
    so.queueDepth = 1;
    CompileService service(so);
    const std::string machine_text =
        machineToText(MachineModel::clusteredRing(4));

    constexpr int kThreads = 4;
    constexpr int kPerThread = 40;
    std::vector<CompileService::ResultPtr> results(kThreads *
                                                   kPerThread);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int j = 0; j < kPerThread; ++j) {
                const int i = t * kPerThread + j;
                CompileRequest req;
                req.loopText = coldLoopText(0x0c7ULL, i);
                req.machineText = machine_text;
                req.options.scheduler = "dms";
                results[static_cast<size_t>(i)] =
                    service.compile(req, /*maxWaitMs=*/0);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    std::array<std::uint64_t, kCompileStatusCount> byStatus{};
    for (const CompileService::ResultPtr &r : results) {
        ASSERT_NE(r, nullptr);
        SCOPED_TRACE(compileStatusName(r->status));
        EXPECT_EQ(r->parsed, r->status != CompileStatus::Invalid);
        EXPECT_EQ(r->ok, r->status == CompileStatus::Ok);
        EXPECT_EQ(r->run.ok, r->ok);
        ++byStatus[static_cast<size_t>(r->status)];
    }
    const auto n = [&](CompileStatus status) {
        return byStatus[static_cast<size_t>(status)];
    };
    EXPECT_EQ(counter(service, "serve.failed"), n(CompileStatus::Failed));
    EXPECT_EQ(counter(service, "serve.expired"),
              n(CompileStatus::Expired));
    EXPECT_EQ(counter(service, "serve.shed"), n(CompileStatus::Rejected));
    EXPECT_EQ(counter(service, "serve.invalid"),
              n(CompileStatus::Invalid));
    EXPECT_EQ(counter(service, "serve.quarantined"),
              n(CompileStatus::Quarantined));
    EXPECT_GT(n(CompileStatus::Ok), 0u);
    EXPECT_GT(n(CompileStatus::Failed), 0u);
    EXPECT_GT(n(CompileStatus::Expired), 0u);
    EXPECT_GT(n(CompileStatus::Rejected), 0u);
    expectMetricsConsistent(service, "outcomes");
}

/** The serve.latency_ms sample count of @p service. */
std::uint64_t
latencySamples(const CompileService &service)
{
    const obs::MetricsSnapshot snap = service.metrics();
    const auto *latency = snap.findHistogram("serve.latency_ms");
    EXPECT_NE(latency, nullptr);
    return latency != nullptr ? latency->hist.count : 0;
}

/**
 * One request that expires in flight moves serve.expired and the
 * serve.latency_ms count by the same amounts whichever client path
 * sent it — compile(), the load generator's shedding path or TCP —
 * because all three end in CompileService::compile's deadline wait.
 */
TEST(Faults, DeadlineAccountingMatchesOnEveryPath)
{
    FaultGuard guard;
    FaultPlan plan;
    // 200 ms per stage boundary against a 50 ms budget: the
    // client's wait runs out long before the worker's cancel poll.
    plan.add({"pipeline.*", 1.0, 8, FaultKind::Delay, 200000});
    armFaults(plan);

    using Send = std::function<CompileStatus(CompileService &,
                                             const CompileRequest &)>;
    const std::pair<const char *, Send> paths[] = {
        {"compile",
         [](CompileService &service, const CompileRequest &req) {
             return service.compile(req)->status;
         }},
        {"shedding",
         [](CompileService &service, const CompileRequest &req) {
             RetryPolicy policy;
             policy.deadlineMs = req.deadlineMs;
             policy.submitWaitMs = 0;
             Rng rng(1);
             return compileWithRetry(service, req, policy, rng)
                 ->status;
         }},
        {"tcp",
         [](CompileService &service, const CompileRequest &req) {
             NetServer server(service);
             std::string error;
             EXPECT_TRUE(server.start(error)) << error;
             NetClient client;
             EXPECT_TRUE(client.connect("127.0.0.1", server.port(),
                                        5000, error))
                 << error;
             CompileResult result;
             EXPECT_TRUE(client.compile(req, result, error)) << error;
             return result.status;
         }},
    };

    for (const auto &[name, send] : paths) {
        SCOPED_TRACE(name);
        ServeOptions so;
        so.workers = 1;
        CompileService service(so);
        CompileRequest req = kernelRequest("daxpy");
        req.deadlineMs = 50;
        EXPECT_EQ(send(service, req), CompileStatus::Expired);

        // The worker resolves the abandoned compile at its next
        // cancel poll; retiring the entry is its last step.
        const auto give_up = std::chrono::steady_clock::now() +
                             std::chrono::seconds(20);
        while (counter(service, "cache.retired") == 0 &&
               std::chrono::steady_clock::now() < give_up)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        ASSERT_EQ(counter(service, "cache.retired"), 1u);

        // One Expired result for the caller, one for the worker.
        EXPECT_EQ(counter(service, "serve.expired"), 2u);
        EXPECT_EQ(latencySamples(service), 1u);
        expectMetricsConsistent(service, name);
    }
}

// --- request validation (the paths that used to panic) -----------------

TEST(Validate, PanicReachableRequestsRejectedStructured)
{
    ServeOptions so;
    so.workers = 1;
    CompileService service(so);

    // An FU class the machine lacks (resMii's panic).
    CompileRequest no_mul = kernelRequest("daxpy");
    no_mul.machineText = "clusters 1\n"
                         "topology ring\n"
                         "regfile queues\n"
                         "fus ldst=1 add=1 mul=0 copy=1\n";
    CompileService::ResultPtr r = service.compile(no_mul);
    EXPECT_EQ(r->status, CompileStatus::Invalid);
    EXPECT_NE(r->error.find("MUL units"), std::string::npos)
        << r->error;

    // Unroll knobs outside their domain (unroll stage fatal).
    CompileRequest huge = kernelRequest("daxpy");
    huge.options.forceUnroll = 5000;
    r = service.compile(huge);
    EXPECT_EQ(r->status, CompileStatus::Invalid);
    EXPECT_NE(r->error.find("forceUnroll"), std::string::npos);

    CompileRequest zero = kernelRequest("daxpy");
    zero.options.unrollMaxFactor = 0;
    r = service.compile(zero);
    EXPECT_EQ(r->status, CompileStatus::Invalid);
    EXPECT_NE(r->error.find("unrollMaxFactor"),
              std::string::npos);

    CompileRequest ops = kernelRequest("daxpy");
    ops.options.unrollMaxOps = 0;
    r = service.compile(ops);
    EXPECT_EQ(r->status, CompileStatus::Invalid);
    EXPECT_NE(r->error.find("unrollMaxOps"), std::string::npos);

    // A clustered queue machine with no copy units cannot host
    // the move/copy insertion the pipeline will attempt.
    CompileRequest no_copy = kernelRequest("daxpy");
    no_copy.machineText = "clusters 2\n"
                          "topology ring\n"
                          "regfile queues\n"
                          "fus ldst=1 add=1 mul=1\n";
    r = service.compile(no_copy);
    EXPECT_EQ(r->status, CompileStatus::Invalid);

    // The service survived every rejection.
    CompileService::ResultPtr good =
        service.compile(kernelRequest("daxpy"));
    EXPECT_TRUE(good->ok) << good->error;
    EXPECT_EQ(counter(service, "serve.invalid"), 5u);
    expectMetricsConsistent(service, "validate");
}

TEST(Validate, ForcedUnrollRespectsUnrollMaxOps)
{
    ServeOptions so;
    so.workers = 1;
    CompileService service(so);

    // A 1000-op dependence chain: load, 998 adds, store.
    LoopBuilder b;
    OpId v = b.load(0);
    for (int i = 0; i < 998; ++i)
        v = b.add1(v);
    b.store(1, v);
    Loop chain;
    chain.name = "chain1000";
    chain.ddg = b.take();
    ASSERT_EQ(chain.ddg.liveOpCount(), 1000);

    PipelineOptions po;
    po.scheduler = "dms";
    po.forceUnroll = 1024;
    const MachineModel ring = MachineModel::clusteredRing(4);
    CompileService::ResultPtr r =
        service.compile(makeRequest(chain, ring, po));
    EXPECT_EQ(r->status, CompileStatus::Invalid);
    EXPECT_NE(r->error.find("forceUnroll 1024 x 1000 live ops = "
                            "1024000 exceeds unrollMaxOps 512"),
              std::string::npos)
        << r->error;

    // Under a cap that admits the forced body, it compiles.
    po.forceUnroll = 2;
    po.unrollMaxOps = 2000;
    r = service.compile(makeRequest(chain, ring, po));
    EXPECT_EQ(r->status, CompileStatus::Ok) << r->error;

    // A forced factor on a small body stays within the default cap.
    CompileRequest daxpy = kernelRequest("daxpy");
    daxpy.options.forceUnroll = 8;
    r = service.compile(daxpy);
    EXPECT_EQ(r->status, CompileStatus::Ok) << r->error;

    EXPECT_EQ(counter(service, "serve.invalid"), 1u);
    expectMetricsConsistent(service, "forced-unroll");
}

// --- cache eviction/retirement accounting ------------------------------

/**
 * Conservation fuzz: every entry that enters the cache leaves it
 * through exactly one of eviction (ready), retirement (failed) or
 * residency. After every operation the recount
 *   inserted == size() + evictions() + retired()
 * must hold exactly, and no lookup may ever surface a failed
 * entry.
 */
void
conservationFuzz(std::uint64_t seed)
{
    ResultCache cache(/*shards=*/2, /*capacity=*/8);
    Rng rng(seed);
    std::uint64_t inserted = 0;
    std::uint64_t resolved_failed = 0;
    std::vector<std::pair<std::string,
                          std::shared_ptr<CacheEntry>>>
        inflight;

    auto resolve = [&](const std::string &key,
                       const std::shared_ptr<CacheEntry> &entry) {
        const bool fail = rng.range(0, 99) < 40;
        if (fail) {
            ++resolved_failed;
            entry->failed.store(true, std::memory_order_release);
        }
        entry->ready.store(true, std::memory_order_release);
        entry->promise.set_value(
            std::make_shared<CompileResult>());
        // Half of the failures retire eagerly (the service path);
        // the rest are reclaimed lazily by acquire/eviction.
        if (fail && rng.range(0, 1) == 0)
            cache.retire(key, fnv1a64(key), entry);
    };

    for (int step = 0; step < 5000; ++step) {
        const std::string key =
            strfmt("key-%d", static_cast<int>(rng.range(0, 39)));
        const std::uint64_t hash = fnv1a64(key);
        const int action = static_cast<int>(rng.range(0, 99));
        if (action < 60) {
            std::shared_ptr<CacheEntry> entry;
            const ResultCache::Lookup found =
                cache.acquire(key, hash, entry);
            ASSERT_NE(entry, nullptr);
            if (found == ResultCache::Lookup::Inserted) {
                ++inserted;
                if (rng.range(0, 99) < 70)
                    resolve(key, entry);
                else
                    inflight.emplace_back(key, entry);
            } else if (found == ResultCache::Lookup::Hit) {
                EXPECT_FALSE(entry->failed.load());
                EXPECT_TRUE(entry->ready.load());
            }
        } else if (action < 90) {
            const std::shared_ptr<CacheEntry> found =
                cache.find(key, hash);
            if (found != nullptr) {
                EXPECT_FALSE(found->failed.load());
            }
        } else if (!inflight.empty()) {
            const size_t pick = static_cast<size_t>(rng.range(
                0, static_cast<int>(inflight.size()) - 1));
            resolve(inflight[pick].first, inflight[pick].second);
            inflight.erase(inflight.begin() +
                           static_cast<long>(pick));
        }
        ASSERT_EQ(inserted, cache.size() + cache.evictions() +
                                cache.retired())
            << "step " << step;
    }
    for (auto &p : inflight)
        resolve(p.first, p.second);
    EXPECT_EQ(inserted,
              cache.size() + cache.evictions() + cache.retired());
    // The fuzz actually exercised both exit paths.
    EXPECT_GT(cache.evictions(), 0u);
    EXPECT_GT(cache.retired(), 0u);
    EXPECT_GT(resolved_failed, 0u);
}

TEST(CacheAccounting, FuzzedConservationExact)
{
    for (const std::uint64_t seed : {0xacc7ULL, 0x14c7ULL, 0xc057ULL}) {
        SCOPED_TRACE(seed);
        conservationFuzz(seed);
    }
}

} // namespace
} // namespace dms
