/**
 * @file
 * Compile-service tests: env-knob hardening, cold/warm parity
 * (bit-identical cached results), single-flight dedup under
 * concurrent duplicate requests (the ASan/TSan-relevant hammer),
 * sweep parity with runMatrix, FIFO capacity eviction, and graceful
 * rejection of malformed requests.
 */

#include <cstdint>
#include <cstdlib>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "codegen/emit.h"
#include "core/dms.h"
#include "eval/runner.h"
#include "machine/desc.h"
#include "obs/metrics.h"
#include "requests.h"
#include "sched/mii.h"
#include "sched/scheduler.h"
#include "serve/cache.h"
#include "serve/loadgen.h"
#include "serve/service.h"
#include "support/strings.h"
#include "workload/suite.h"
#include "workload/text.h"

namespace dms {
namespace {

/** @p service's counter @p name; a missing counter fails the test. */
std::uint64_t
counter(const CompileService &service, const char *name)
{
    const obs::MetricsSnapshot snap = service.metrics();
    const auto *c = snap.findCounter(name);
    EXPECT_NE(c, nullptr) << name;
    return c != nullptr ? c->value : 0;
}

/** Canonical request for one named kernel on the paper's ring. */
CompileRequest
kernelRequest(const char *kernel, bool codegen = true)
{
    Loop loop;
    std::string error;
    EXPECT_TRUE(loadLoopSpec(
        (std::string("kernel:") + kernel).c_str(), loop, error))
        << error;
    PipelineOptions po;
    po.scheduler = "dms";
    po.regalloc = true;
    po.codegen = codegen;
    return makeRequest(loop, MachineModel::clusteredRing(4), po);
}

TEST(ServeOptionsEnv, StrictKnobParsing)
{
    // Trailing junk and out-of-range values fall back to the
    // defaults (same strict path as DMS_JOBS).
    ::setenv("DMS_SERVE_QUEUE_DEPTH", "12x", 1);
    ::setenv("DMS_SERVE_CACHE_CAP", "0", 1);
    ServeOptions defaults;
    ServeOptions opts = ServeOptions::fromEnv();
    EXPECT_EQ(opts.queueDepth, defaults.queueDepth);
    EXPECT_EQ(opts.cacheCapacity, defaults.cacheCapacity);

    ::setenv("DMS_SERVE_QUEUE_DEPTH", "17", 1);
    ::setenv("DMS_SERVE_CACHE_CAP", "100", 1);
    opts = ServeOptions::fromEnv();
    EXPECT_EQ(opts.queueDepth, 17);
    EXPECT_EQ(opts.cacheCapacity, 100);

    ::unsetenv("DMS_SERVE_QUEUE_DEPTH");
    ::unsetenv("DMS_SERVE_CACHE_CAP");
}

TEST(ServeCache, FnvMatchesReference)
{
    // FNV-1a reference values (RFC draft test vectors).
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

/**
 * The acceptance-criteria parity test: a warm cache hit returns
 * results bit-identical to the cold compile — the same LoopRun
 * (every placement-derived field) and the same emitted kernel text
 * — and identical to the direct (service-less) pipeline.
 */
TEST(Serve, WarmHitBitIdenticalToColdCompile)
{
    ServeOptions so;
    so.workers = 2;
    CompileService service(so);

    CompileRequest req = kernelRequest("fir8");
    CompileService::ResultPtr cold = service.compile(req);
    ASSERT_TRUE(cold->parsed);
    ASSERT_TRUE(cold->ok);

    CompileService::Ticket warm_ticket = service.submit(req);
    EXPECT_EQ(warm_ticket.source, CompileService::Source::Hit);
    CompileService::ResultPtr warm = warm_ticket.future.get();

    // A hit returns the *same* cached object...
    EXPECT_EQ(warm.get(), cold.get());
    // ...and the direct pipeline produces the identical artifacts.
    Loop loop;
    std::string error;
    ASSERT_TRUE(loadLoopSpec("kernel:fir8", loop, error));
    MachineModel machine = MachineModel::clusteredRing(4);
    PipelineOptions po;
    po.scheduler = "dms";
    po.regalloc = true;
    po.codegen = true;
    Pipeline pipeline(po);
    CompilationContext ctx;
    LoopRun direct = runLoop(pipeline, loop, machine, ctx);
    EXPECT_TRUE(warm->run == direct);
    std::string direct_kernel = emitPipelinedCode(
        ctx.scheduledDdg(), machine, ctx.kernel,
        ctx.queuesValid ? &ctx.queues : nullptr);
    EXPECT_EQ(warm->kernelText, direct_kernel);
    EXPECT_FALSE(warm->kernelText.empty());

    EXPECT_EQ(counter(service, "serve.misses"), 1u);
    EXPECT_EQ(counter(service, "serve.hits"), 1u);
}

/** True if the op lines of a loop text list their ids descending. */
bool
descendingOpIds(const std::string &text)
{
    int prev = -1;
    for (const std::string &line : split(text, '\n')) {
        std::vector<std::string> f;
        for (const std::string &t : split(line, ' ')) {
            if (!t.empty())
                f.push_back(t);
        }
        int id = 0;
        if (f.size() < 2 || f[0] != "op" || !parseInt(f[1], id))
            continue;
        if (prev >= 0 && id > prev)
            return false;
        prev = id;
    }
    return prev >= 0;
}

/**
 * Different spellings of one request land on one cache entry:
 * comments, blank lines, extra spaces and remapped op ids, on every
 * hot kernel, including a descending-id spelling of each (the
 * parser's out-of-order id path).
 */
TEST(Serve, CanonicalizationUnifiesSpellings)
{
    ServeOptions so;
    so.workers = 1;
    CompileService service(so);
    Rng rng(0x5be11);
    std::string keys;
    for (const Loop &k : namedKernels()) {
        CompileRequest req = kernelRequest(k.name.c_str(),
                                           /*codegen=*/false);
        CompileService::Ticket primed = service.submit(req);
        CompileService::ResultPtr first = primed.future.get();
        ASSERT_TRUE(first->ok) << k.name;
        keys += strfmt("%016llx\n",
                       static_cast<unsigned long long>(primed.key));

        bool descending = false;
        for (int i = 0; i < 6 || !descending; ++i) {
            ASSERT_LT(i, 100) << k.name << ": no descending spelling";
            CompileRequest alias = req;
            alias.loopText = respelledKernelText(req.loopText, rng);
            descending |= descendingOpIds(alias.loopText);
            CompileService::Ticket t = service.submit(alias);
            EXPECT_EQ(t.source, CompileService::Source::Hit)
                << alias.loopText;
            EXPECT_EQ(t.key, primed.key) << alias.loopText;
            EXPECT_EQ(t.future.get().get(), first.get())
                << alias.loopText;
        }
    }
    EXPECT_EQ(counter(service, "serve.misses"), namedKernels().size());
    // The canonical cache keys themselves (loop text, machine text
    // and options part), pinned.
    EXPECT_EQ(fnv1a64(keys), 0x1f5eb5055ab252dcULL)
        << std::hex << fnv1a64(keys);
}

/**
 * The hammer: many threads submit the same requests concurrently.
 * Single-flight dedup must compile each distinct request exactly
 * once, every duplicate must coalesce or hit, and every client
 * must see the same result object. Run under the ASan/UBSan CI
 * job, this is also the data-race check for the queue and cache.
 */
TEST(Serve, SingleFlightDedupUnderConcurrency)
{
    ServeOptions so;
    so.workers = 3;
    so.queueDepth = 8; // small: exercise producer backpressure
    CompileService service(so);

    const char *kernels[] = {"fir8", "daxpy", "iir2", "horner"};
    constexpr int kClients = 8;
    constexpr int kPerClient = 40;

    std::vector<CompileRequest> requests;
    for (const char *k : kernels)
        requests.push_back(kernelRequest(k));

    std::vector<CompileService::ResultPtr>
        seen(kClients * kPerClient);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int i = 0; i < kPerClient; ++i) {
                const CompileRequest &req =
                    requests[static_cast<size_t>(i) %
                             requests.size()];
                seen[static_cast<size_t>(c * kPerClient + i)] =
                    service.compile(req);
            }
        });
    }
    for (std::thread &t : clients)
        t.join();

    // Every duplicate resolved to the one cached object per key.
    for (int i = 0; i < kClients * kPerClient; ++i) {
        size_t key = static_cast<size_t>(i) % requests.size();
        ASSERT_TRUE(seen[static_cast<size_t>(i)] != nullptr);
        EXPECT_EQ(seen[static_cast<size_t>(i)].get(),
                  seen[key].get());
    }

    const std::uint64_t submitted =
        counter(service, "serve.requests");
    EXPECT_EQ(submitted,
              static_cast<std::uint64_t>(kClients * kPerClient));
    // Exactly one cold compile per distinct request; everything
    // else was deduplicated (hit or coalesced).
    const std::uint64_t misses = counter(service, "serve.misses");
    EXPECT_EQ(misses, 4u);
    EXPECT_EQ(counter(service, "serve.hits") +
                  counter(service, "serve.coalesced"),
              submitted - misses);
    EXPECT_EQ(counter(service, "serve.invalid"), 0u);
}

/** Malformed requests are rejected without killing the service. */
TEST(Serve, InvalidRequestsRejectedGracefully)
{
    ServeOptions so;
    so.workers = 1;
    CompileService service(so);

    CompileRequest bad;
    bad.loopText = "op 0 frobnicate\n";
    bad.machineText = machineToText(MachineModel::clusteredRing(2));
    CompileService::ResultPtr r = service.compile(bad);
    EXPECT_FALSE(r->parsed);
    EXPECT_NE(r->error.find("unknown opcode"), std::string::npos);

    CompileRequest bad_machine = kernelRequest("daxpy");
    bad_machine.machineText = "clusters banana\n";
    r = service.compile(bad_machine);
    EXPECT_FALSE(r->parsed);
    EXPECT_FALSE(r->error.empty());

    // Unknown scheduler names and scheduler/machine mismatches
    // are data errors too: rejected in submit(), never handed to
    // a worker (whose fatal() would kill the whole service).
    CompileRequest bad_sched = kernelRequest("daxpy");
    bad_sched.options.scheduler = "bogus";
    r = service.compile(bad_sched);
    EXPECT_FALSE(r->parsed);
    EXPECT_NE(r->error.find("unknown scheduler"),
              std::string::npos);

    CompileRequest mismatched = kernelRequest("daxpy");
    mismatched.options.scheduler = "dms";
    mismatched.machineText =
        machineToText(MachineModel::unclustered(4));
    r = service.compile(mismatched);
    EXPECT_FALSE(r->parsed);
    EXPECT_NE(r->error.find("does not support"),
              std::string::npos);

    // The service still works afterwards.
    CompileService::ResultPtr good =
        service.compile(kernelRequest("daxpy"));
    EXPECT_TRUE(good->ok);
    EXPECT_EQ(counter(service, "serve.invalid"), 4u);
}

/**
 * A scheduler name with an embedded NUL is an unknown scheduler,
 * not an alias of its C-string prefix: the options key carries the
 * name's full bytes, so a primed "dms" entry cannot answer it.
 */
TEST(Serve, SchedulerNameWithNulIsNotItsPrefix)
{
    const Loop kernel = namedKernels()[0];
    PipelineOptions po;
    po.scheduler = "dms";
    const CompileRequest dms =
        makeRequest(kernel, MachineModel::clusteredRing(4), po);
    CompileRequest nul = dms;
    nul.options.scheduler = std::string("dms\0x", 5);

    for (bool primed : {false, true}) {
        ServeOptions so;
        so.workers = 1;
        CompileService service(so);
        if (primed) {
            ASSERT_EQ(service.compile(dms)->status,
                      CompileStatus::Ok);
        }
        CompileService::Ticket t = service.submit(nul);
        const char *when = primed ? "primed" : "fresh";
        EXPECT_NE(t.source, CompileService::Source::Hit) << when;
        CompileService::ResultPtr r = t.future.get();
        EXPECT_EQ(r->status, CompileStatus::Invalid) << when;
        EXPECT_NE(r->error.find("unknown scheduler"), std::string::npos)
            << r->error;
    }
}

/**
 * Flow-edge latencies in the loop text come from the machine's
 * latency model (overrides included), so a request against a
 * `latency`-overridden machine schedules with the same edges the
 * direct pipeline sees for a loop built against that model.
 */
TEST(Serve, MachineLatencyModelShapesFlowEdges)
{
    std::string machine_text = "clusters 2\n"
                               "topology ring\n"
                               "regfile queues\n"
                               "fus ldst=1 add=1 mul=1 copy=1\n"
                               "latency mul=5\n";
    MachineModel machine = machineFromTextOrDie(machine_text);

    CompileRequest req;
    req.loopText = loopToText(kernelIir2());
    req.machineText = machine_text;
    req.options.scheduler = "dms";
    req.options.regalloc = true;

    ServeOptions so;
    so.workers = 1;
    CompileService service(so);
    CompileService::ResultPtr served = service.compile(req);
    ASSERT_TRUE(served->parsed) << served->error;
    ASSERT_TRUE(served->ok);

    Loop direct_loop =
        loopFromText(req.loopText, machine.latency());
    PipelineOptions po;
    po.scheduler = "dms";
    po.regalloc = true;
    Pipeline pipeline(po);
    CompilationContext ctx;
    LoopRun direct = runLoop(pipeline, direct_loop, machine, ctx);
    EXPECT_TRUE(served->run == direct);
    // The override actually bit: iir2's recurrence runs through a
    // mul, so mul=5 pushes the recurrence-bound II beyond the
    // default-latency machine's.
    CompilationContext ctx2;
    LoopRun default_lat = runLoop(
        pipeline, loopFromText(req.loopText),
        MachineModel::clusteredRing(2), ctx2);
    EXPECT_GT(direct.ii, default_lat.ii);
}

/** Capacity-bounded: old ready entries are evicted and recompile. */
TEST(Serve, EvictionRecompilesEvictedKeys)
{
    ServeOptions so;
    so.workers = 1;
    so.shards = 1; // one shard => strict FIFO eviction order
    so.cacheCapacity = 2;
    CompileService service(so);

    const char *kernels[] = {"fir8", "daxpy", "iir2", "horner"};
    for (const char *k : kernels)
        ASSERT_TRUE(service.compile(kernelRequest(k))->ok) << k;
    EXPECT_EQ(counter(service, "serve.misses"), 4u);
    EXPECT_GT(counter(service, "cache.evictions"), 0u);

    // fir8 was evicted: recompiles (a miss, not a hit) and still
    // produces the bit-identical result.
    CompileService::ResultPtr again =
        service.compile(kernelRequest("fir8"));
    EXPECT_EQ(counter(service, "serve.misses"), 5u);
    EXPECT_TRUE(again->ok);
}

// --- FIFO eviction -----------------------------------------------------

/** Resolve @p entry as a successful compile. */
void
publish(CacheEntry &entry)
{
    entry.ready.store(true, std::memory_order_release);
    entry.promise.set_value(std::make_shared<CompileResult>());
}

/** Insert @p key as a ready entry. */
void
insertReady(ResultCache &cache, const std::string &key)
{
    std::shared_ptr<CacheEntry> entry;
    ASSERT_EQ(cache.acquire(key, fnv1a64(key), entry),
              ResultCache::Lookup::Inserted)
        << key;
    publish(*entry);
}

bool
resident(ResultCache &cache, const std::string &key)
{
    return cache.find(key, fnv1a64(key)) != nullptr;
}

/** FIFO ignores touches: insertion order alone picks the victim. */
TEST(CacheEviction, FifoIgnoresRecency)
{
    ResultCache cache(/*shards=*/1, /*capacity=*/3);
    insertReady(cache, "a");
    insertReady(cache, "b");
    insertReady(cache, "c");
    EXPECT_TRUE(resident(cache, "a")); // touch changes nothing
    insertReady(cache, "d");
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_FALSE(resident(cache, "a"));
    EXPECT_TRUE(resident(cache, "b"));
}

/**
 * In-flight entries are pinned, so a shard can go over its cap;
 * once they publish, the next insert pays the whole overshoot back
 * rather than dropping one entry and staying over.
 */
TEST(CacheEviction, OvershootIsPaidBackOnceEntriesPublish)
{
    ResultCache cache(/*shards=*/1, /*capacity=*/2);
    std::vector<std::shared_ptr<CacheEntry>> inflight;
    for (const char *key : {"a", "b", "c"}) {
        std::shared_ptr<CacheEntry> entry;
        ASSERT_EQ(cache.acquire(key, fnv1a64(key), entry),
                  ResultCache::Lookup::Inserted);
        inflight.push_back(std::move(entry));
    }
    EXPECT_EQ(cache.size(), 3u);
    for (const std::shared_ptr<CacheEntry> &entry : inflight)
        publish(*entry);

    insertReady(cache, "d");
    insertReady(cache, "e");
    EXPECT_LE(cache.size(), 2u);
    EXPECT_EQ(cache.size() + cache.evictions() + cache.retired(),
              5u);
    EXPECT_TRUE(resident(cache, "e"));
}

/** runMatrix's cells in its slot order: per config, IMS then DMS. */
std::vector<LoopRun>
matrixCells(const std::vector<ConfigRun> &matrix)
{
    std::vector<LoopRun> cells;
    for (const ConfigRun &config : matrix) {
        cells.insert(cells.end(), config.unclustered.begin(),
                     config.unclustered.end());
        cells.insert(cells.end(), config.clustered.begin(),
                     config.clustered.end());
    }
    return cells;
}

/**
 * Sweep parity: every cell of a matrix, compiled as a service
 * request, is bit-identical to runMatrix's direct path, and a
 * second sweep is served from the cache.
 */
TEST(Serve, MatrixViaServiceBitIdentical)
{
    std::vector<Loop> suite = standardSuite(kSuiteSeed, 4);
    suite.resize(6); // 4 synth + 2 kernels: keep the test quick

    RunnerOptions direct;
    direct.maxClusters = 3;
    direct.progress = false;
    direct.jobs = 1;
    const std::vector<LoopRun> want =
        matrixCells(runMatrix(suite, direct));

    ServeOptions so;
    so.workers = 2;
    CompileService service(so);
    // Submit every cell before collecting any, in matrixCells'
    // order, with the runner's columns and machine templates.
    const auto sweep = [&] {
        std::vector<CompileService::Ticket> tickets;
        for (int c = 1; c <= direct.maxClusters; ++c) {
            for (const bool clustered : {false, true}) {
                PipelineOptions po;
                po.scheduler = clustered ? direct.clusteredScheduler
                                         : direct.unclusteredScheduler;
                po.config.base = direct.ims;
                po.config.dms = direct.dms;
                po.verify = direct.verify;
                po.regalloc = direct.regalloc;
                MachineModel machine = MachineModel::unclustered(1);
                std::string error;
                EXPECT_TRUE(machineFromText(
                    expandMachineTemplate(
                        clustered ? direct.clusteredMachine
                                  : direct.unclusteredMachine,
                        c),
                    machine, error))
                    << error;
                for (const Loop &loop : suite)
                    tickets.push_back(service.submit(
                        makeRequest(loop, machine, po)));
            }
        }
        std::vector<LoopRun> got;
        for (CompileService::Ticket &t : tickets) {
            CompileService::ResultPtr result = t.future.get();
            EXPECT_TRUE(result->parsed) << result->error;
            got.push_back(result->run);
        }
        return got;
    };

    EXPECT_TRUE(sweep() == want);
    const std::uint64_t first_misses =
        counter(service, "serve.misses");
    const std::uint64_t first_hits = counter(service, "serve.hits");
    EXPECT_EQ(first_misses, want.size());
    EXPECT_EQ(first_hits + counter(service, "serve.coalesced"), 0u);

    // Second sweep: every cell is a cache hit, same matrix.
    EXPECT_TRUE(sweep() == want);
    EXPECT_EQ(counter(service, "serve.misses"), first_misses);
    EXPECT_EQ(counter(service, "serve.hits") - first_hits,
              first_misses);
}

/**
 * DMS behind a deliberately corrupt RecMII hint: the regression
 * shape for the height relaxation's budget-exhaustion panic. A
 * hostile knownRecMii below the true RecMII used to drive height
 * relaxation into its divergence budget and fatal() the worker —
 * killing the whole daemon. It must instead surface as a failed
 * attempt (recovered at a legal II) or, with a capped ladder, as a
 * structured Unschedulable result.
 */
class HostileHintScheduler : public Scheduler
{
  public:
    const char *name() const override { return "hostile-hints"; }

    bool
    supports(const MachineModel &machine) const override
    {
        return machine.clustered();
    }

    SchedulerResult
    schedule(const Ddg &body, const MachineModel &machine,
             const SchedulerConfig &config) override
    {
        DmsParams params = config.dms;
        params.knownRecMii = 1; // the lie: true RecMII is larger
        DmsOutcome out = scheduleDms(body, machine, params);
        SchedulerResult result;
        result.sched = std::move(out.sched);
        result.ddg = std::move(out.ddg);
        return result;
    }
};

std::unique_ptr<Scheduler>
makeHostileHintScheduler()
{
    return std::make_unique<HostileHintScheduler>();
}

TEST(Serve, HostileMiiHintIsRecoverableNotFatal)
{
    SchedulerRegistry::instance().add("hostile-hints",
                                      &makeHostileHintScheduler);

    // acc = acc * x + y: the two-op recurrence puts the true RecMII
    // (mul + add latency) well above the resource bound the hostile
    // hint lets the ladder start from.
    LoopBuilder b;
    OpId ld = b.load(0);
    OpId ml = b.mul1(ld);
    OpId ad = b.add1(ml);
    b.flow(ad, ml, 1, 1);
    b.store(1, ad);
    Loop loop;
    loop.name = "hostile";
    loop.ddg = b.take();
    const int rec = recMii(loop.ddg);
    ASSERT_GT(rec, 1);

    ServeOptions so;
    so.workers = 1;
    CompileService service(so);
    MachineModel machine = MachineModel::clusteredRing(2);

    PipelineOptions po;
    po.scheduler = "hostile-hints";

    // Uncapped ladder: the early rungs diverge (II below RecMII)
    // but count as failed attempts, and the ladder succeeds at a
    // legal II instead of taking the process down.
    CompileService::ResultPtr ok =
        service.compile(makeRequest(loop, machine, po));
    ASSERT_EQ(ok->status, CompileStatus::Ok);
    EXPECT_GE(ok->run.ii, rec);

    // Ladder capped below the true RecMII: every rung diverges and
    // the request resolves as structured Unschedulable.
    po.config.dms.maxII = rec - 1;
    CompileService::ResultPtr failed =
        service.compile(makeRequest(loop, machine, po));
    EXPECT_EQ(failed->status, CompileStatus::Unschedulable);
    EXPECT_FALSE(failed->ok);

    // The daemon survived: an ordinary request still compiles.
    CompileService::ResultPtr after =
        service.compile(kernelRequest("daxpy"));
    EXPECT_EQ(after->status, CompileStatus::Ok);
}

} // namespace
} // namespace dms
