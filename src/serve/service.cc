#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "codegen/emit.h"
#include "machine/desc.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/diag.h"
#include "support/faultinject.h"
#include "support/strings.h"
#include "support/thread_pool.h"
#include "workload/text.h"

namespace dms {

namespace {

/**
 * One accepted compilation, parsed and ready for a worker. The
 * submit path builds it as soon as acquire() makes the request the
 * owner of a new cache entry, so every later exit (queued, shed or
 * faulted) resolves that entry through it.
 */
struct Job
{
    std::shared_ptr<CacheEntry> entry;
    /** Canonical cache key + hash, for retire() and quarantine. */
    std::string key;
    std::uint64_t hash = 0;
    Loop loop;
    MachineModel machine;
    PipelineOptions options;
    /** Non-null when the request carried a deadline. */
    std::shared_ptr<CancelToken> cancel;

    /**
     * Non-null when tracing was armed at submit: the worker binds
     * it to the pipeline, closes it, and commits it to the
     * TraceLog. The queue's push/pop pair orders the handoff.
     */
    std::shared_ptr<obs::Trace> trace;
};

/**
 * Bounded MPMC job queue. push() waits while the queue is at
 * capacity (producer backpressure — the "bounded" in the design);
 * pop() blocks while it is empty and returns false once the queue
 * is stopped *and* drained, so every accepted job is executed
 * before shutdown completes.
 */
class JobQueue
{
  public:
    explicit JobQueue(int capacity)
        : capacity_(static_cast<size_t>(std::max(capacity, 1)))
    {
    }

    /**
     * Move @p job in, waiting for room: without limit when
     * @p maxWaitMs < 0, else at most that long (0 polls once).
     * False, with @p job untouched, when the queue stayed full —
     * the load-shed signal.
     */
    bool
    push(std::unique_ptr<Job> &job, int maxWaitMs)
    {
        std::unique_lock<std::mutex> lock(mu_);
        const auto room = [&] {
            return queue_.size() < capacity_ || stopped_;
        };
        if (maxWaitMs < 0)
            notFull_.wait(lock, room);
        else if (!notFull_.wait_for(
                     lock, std::chrono::milliseconds(maxWaitMs), room))
            return false;
        DMS_ASSERT(!stopped_, "push after CompileService shutdown");
        queue_.push_back(std::move(job));
        peak_ = std::max(peak_, queue_.size());
        notEmpty_.notify_one();
        return true;
    }

    bool
    pop(std::unique_ptr<Job> &out)
    {
        std::unique_lock<std::mutex> lock(mu_);
        notEmpty_.wait(lock,
                       [&] { return !queue_.empty() || stopped_; });
        if (queue_.empty())
            return false;
        out = std::move(queue_.front());
        queue_.pop_front();
        notFull_.notify_one();
        return true;
    }

    void
    stop()
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopped_ = true;
        notEmpty_.notify_all();
        notFull_.notify_all();
    }

    int
    depth() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return static_cast<int>(queue_.size());
    }

    int
    peak() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return static_cast<int>(peak_);
    }

  private:
    mutable std::mutex mu_;
    std::condition_variable notEmpty_;
    std::condition_variable notFull_;
    std::deque<std::unique_ptr<Job>> queue_;
    size_t capacity_;
    size_t peak_ = 0;
    bool stopped_ = false;
};

/**
 * The option fields that select a compilation outcome, serialized
 * into the cache key. The MII hint fields (known*Mii) are excluded
 * on purpose: the pipeline overwrites them from its own MII stage,
 * so they cannot change the result. perf is forced on — LoopRun
 * needs it — and is therefore not part of the key either. The
 * analyze switch is likewise excluded: the audit is observational
 * (it panics rather than producing a different result), so analyzed
 * and plain requests must share one cache entry.
 *
 * Appends to @p key in place: the submit path builds two keys per
 * request.
 */
void
appendOptionsKey(std::string &key, const PipelineOptions &po)
{
    // The name's full bytes: a scheduler name with an embedded NUL
    // must not key as its C-string prefix.
    key += "sched=";
    key += po.scheduler;
    appendInt(key, ";unroll=", po.forceUnroll);
    appendInt(key, ";umax=", po.unrollMaxFactor);
    appendInt(key, ";uops=", po.unrollMaxOps);
    appendInt(key, ";verify=", po.verify ? 1 : 0);
    appendInt(key, ";ra=", po.regalloc ? 1 : 0);
    appendInt(key, ";cg=", po.codegen ? 1 : 0);
    appendInt(key, ";b.budget=", po.config.base.budgetRatio);
    appendInt(key, ";b.maxii=", po.config.base.maxII);
    appendInt(key, ";d.budget=", po.config.dms.budgetRatio);
    appendInt(key, ";d.maxii=", po.config.dms.maxII);
    appendInt(key, ";d.restarts=", po.config.dms.restartsPerII);
    appendInt(key, ";d.chains=", po.config.dms.enableChains ? 1 : 0);
    appendInt(key, ";d.rule=", static_cast<int>(po.config.dms.chainRule));
    appendInt(key, ";d.s3=", static_cast<int>(po.config.dms.s3Policy));
}

/** Room reserved for appendOptionsKey's part of a key. */
constexpr size_t kOptionsKeyBytes = 192;

/**
 * Owner of a request's trace while this thread holds it: finishes
 * the trace and commits it to the TraceLog on scope exit, unless
 * ownership moved on (into a queued job).
 */
struct TraceCommit
{
    std::shared_ptr<obs::Trace> trace;

    TraceCommit() = default;
    explicit TraceCommit(std::shared_ptr<obs::Trace> t)
        : trace(std::move(t))
    {
    }
    TraceCommit(const TraceCommit &) = delete;
    TraceCommit &operator=(const TraceCommit &) = delete;

    ~TraceCommit()
    {
        if (trace != nullptr) {
            trace->finish();
            obs::TraceLog::instance().commit(std::move(trace));
        }
    }
};

/** The service's one CompileResult constructor. */
std::shared_ptr<CompileResult>
makeResult(CompileStatus status, std::string error = std::string(),
           std::string failSite = std::string())
{
    auto result = std::make_shared<CompileResult>();
    result->status = status;
    result->error = std::move(error);
    result->failSite = std::move(failSite);
    deriveResultFlags(*result);
    return result;
}

/**
 * The fault boundary's verdict on an exception that interrupted a
 * request, for the worker and the submit path alike: an
 * InjectedFault is Failed at its site, a CancelledError is
 * Expired, anything else is Failed. @p note gets the annotation of
 * the trace's failed root span.
 */
std::shared_ptr<CompileResult>
interruptedResult(const std::exception &e, std::string &note)
{
    if (const auto *fault = dynamic_cast<const InjectedFault *>(&e)) {
        note = fault->site();
        return makeResult(CompileStatus::Failed, e.what(),
                          fault->site());
    }
    if (dynamic_cast<const CancelledError *>(&e) != nullptr) {
        note = "cancelled";
        return makeResult(CompileStatus::Expired, e.what());
    }
    note = "exception";
    return makeResult(CompileStatus::Failed, e.what());
}

} // namespace

ServeOptions
ServeOptions::fromEnv()
{
    ServeOptions opts;
    opts.queueDepth =
        envInt("DMS_SERVE_QUEUE_DEPTH", opts.queueDepth);
    opts.cacheCapacity =
        envInt("DMS_SERVE_CACHE_CAP", opts.cacheCapacity);
    return opts;
}

const char *
compileStatusName(CompileStatus status)
{
    switch (status) {
    case CompileStatus::Ok:
        return "ok";
    case CompileStatus::Unschedulable:
        return "unschedulable";
    case CompileStatus::Invalid:
        return "invalid";
    case CompileStatus::Failed:
        return "failed";
    case CompileStatus::Expired:
        return "expired";
    case CompileStatus::Rejected:
        return "rejected";
    case CompileStatus::Quarantined:
        return "quarantined";
    }
    return "unknown";
}

void
deriveResultFlags(CompileResult &result)
{
    result.parsed = result.status != CompileStatus::Invalid;
    result.ok = result.status == CompileStatus::Ok;
    result.run.ok = result.ok;
}

struct CompileService::Impl
{
    explicit Impl(const ServeOptions &o)
        : opts(o), queue(o.queueDepth),
          cache(o.shards, o.cacheCapacity),
          aliases(o.shards, o.cacheCapacity),
          workerCount(o.workers > 0 ? o.workers
                                    : defaultJobs())
    {
        // Honor DMS_FAULTS and DMS_TRACE for any binary hosting a
        // service, so the chaos and tracing surfaces (CI smoke,
        // dmsd) need no plumbing. Idempotent and a no-op when the
        // knobs are unset.
        armFaultsFromEnv();
        obs::armTraceFromEnv();
        workers.reserve(static_cast<size_t>(workerCount));
        for (int w = 0; w < workerCount; ++w)
            workers.emplace_back([this] { workerLoop(); });
    }

    ~Impl()
    {
        queue.stop();
        for (std::thread &t : workers)
            t.join();
    }

    void
    workerLoop()
    {
        // The pooled unit: one CompilationContext per worker, its
        // arenas reused by every request this worker executes.
        CompilationContext ctx;
        std::unique_ptr<Job> job;
        while (queue.pop(job)) {
            execute(*job, ctx);
            job.reset();
        }
    }

    void
    execute(Job &job, CompilationContext &ctx)
    {
        TraceCommit commit(std::move(job.trace));
        obs::Trace *tr = commit.trace.get();
        std::shared_ptr<CompileResult> result;

        // A throwing compile must resolve the request as a
        // structured result, never unwind the worker thread: the
        // catch below is the worker's fault boundary.
        try {
            // The compile span wraps the whole fault boundary so
            // an injected fault or deadline expiry unwinds through
            // it and marks it failed; CurrentTraceScope lets the
            // schedulers' II-ladder rungs find the trace without
            // plumbing it through every signature.
            obs::ScopedSpan span(tr, "compile");
            obs::CurrentTraceScope tls(tr);
            faultPoint("serve.worker.compile");
            if (job.cancel != nullptr && job.cancel->cancelled())
                throw CancelledError(
                    "deadline expired before compile start");
            Pipeline pipeline(job.options);
            ctx.cancel = job.cancel.get();
            ctx.trace = tr;
            const LoopRun run =
                runLoop(pipeline, job.loop, job.machine, ctx);
            // ctx.result is this request's scheduler outcome only
            // on the non-throwing path (contexts are reused), so
            // the attempt counter accumulates here.
            schedAttempts.inc(static_cast<std::uint64_t>(
                std::max(ctx.result.sched.attempts, 0)));
            result = makeResult(run.ok ? CompileStatus::Ok
                                       : CompileStatus::Unschedulable);
            result->run = run;
            if (run.ok && job.options.codegen) {
                result->kernelText = emitPipelinedCode(
                    ctx.scheduledDdg(), job.machine, ctx.kernel,
                    ctx.queuesValid ? &ctx.queues : nullptr);
            }
        } catch (const std::exception &e) {
            std::string note;
            result = interruptedResult(e, note);
            if (tr != nullptr)
                tr->failSpan(0, note);
        }
        ctx.trace = nullptr;
        ctx.cancel = nullptr;

        finishCompile(job, std::move(result));
    }

    /**
     * Resolve @p job's cache entry with @p result: the one exit of
     * every request that owns an entry (worker, shed, submit-path
     * fault). Counts the outcome, tracks poison for the
     * quarantine, and retires non-cacheable outcomes so the next
     * same-key request retries instead of deadlocking on a dead
     * future.
     */
    void
    finishCompile(const Job &job, std::shared_ptr<CompileResult> result)
    {
        const CompileStatus status = result->status;
        count(status);
        const bool cacheable = status == CompileStatus::Ok ||
                               status == CompileStatus::Unschedulable;
        if (cacheable)
            clearPoison(job.key);
        else if (status == CompileStatus::Failed ||
                 status == CompileStatus::Expired)
            notePoison(job.key,
                       /*compileFailed=*/status == CompileStatus::Failed);
        // Publish order matters twice over: failed before ready so
        // no lookup ever classifies a dead entry as a Hit, and
        // ready before set_value so a concurrent acquire() that
        // saw ready==false still blocks on the future — never the
        // other way around.
        CacheEntry &entry = *job.entry;
        if (!cacheable)
            entry.failed.store(true, std::memory_order_release);
        entry.ready.store(true, std::memory_order_release);
        entry.promise.set_value(std::move(result));
        if (!cacheable)
            cache.retire(job.key, job.hash, job.entry);
    }

    /**
     * Bump @p status's outcome counter: the only place the five
     * outcome counters move. Ok and Unschedulable have none.
     */
    void
    count(CompileStatus status)
    {
        switch (status) {
        case CompileStatus::Ok:
        case CompileStatus::Unschedulable:
            break;
        case CompileStatus::Invalid:
            invalid.inc();
            break;
        case CompileStatus::Failed:
            failed.inc();
            break;
        case CompileStatus::Expired:
            expired.inc();
            break;
        case CompileStatus::Rejected:
            shed.inc();
            break;
        case CompileStatus::Quarantined:
            quarantined.inc();
            break;
        }
    }

    /** Consecutive-failure tracking behind the quarantine. */
    struct PoisonState
    {
        int fails = 0;     ///< consecutive Failed compiles
        int rejects = 0;   ///< rejections since (re-)quarantine
        bool quarantined = false;
        bool probe = false; ///< a half-open probe is in flight
    };

    void
    notePoison(const std::string &key, bool compileFailed)
    {
        std::lock_guard<std::mutex> lock(poisonMu);
        PoisonState &p = poison[key];
        p.probe = false;
        if (!compileFailed)
            return; // Expired: not evidence of poison either way.
        if (++p.fails >= opts.quarantineAfter) {
            p.quarantined = true;
            p.rejects = 0;
        }
    }

    void
    clearPoison(const std::string &key)
    {
        std::lock_guard<std::mutex> lock(poisonMu);
        poison.erase(key);
    }

    /**
     * True when @p key is quarantined and this submit should be
     * rejected. Every quarantineProbe-th rejection window instead
     * lets one half-open probe through to re-test the key.
     */
    bool
    quarantineReject(const std::string &key)
    {
        std::lock_guard<std::mutex> lock(poisonMu);
        auto it = poison.find(key);
        if (it == poison.end() || !it->second.quarantined)
            return false;
        PoisonState &p = it->second;
        if (!p.probe && p.rejects >= opts.quarantineProbe) {
            p.probe = true;
            p.rejects = 0;
            return false; // this request is the probe
        }
        ++p.rejects;
        return true;
    }

    ServeOptions opts;
    JobQueue queue;

    /** The authoritative memo map, keyed on canonical text. */
    ResultCache cache;

    /**
     * Raw-spelling aliases into the same entries: a verbatim
     * re-send of a request (the common warm case) resolves here
     * without paying for parse + re-serialization. Both maps are
     * capacity-bounded, so the alias layer is an optimization,
     * never a second source of truth.
     */
    ResultCache aliases;

    int workerCount;
    std::vector<std::thread> workers;

    /**
     * The telemetry cells, swept by metrics(): one relaxed
     * fetch_add per count, one wait-free histogram record per
     * latency; no mutex on any request path.
     */
    obs::Counter requests;
    obs::Counter hits;
    obs::Counter coalesced;
    obs::Counter misses;
    /** Outcome counters; only count() moves them. */
    obs::Counter invalid;
    obs::Counter failed;
    obs::Counter expired;
    obs::Counter shed;
    obs::Counter quarantined;
    /** Ladder attempts of completed compiles (ims/dms alike). */
    obs::Counter schedAttempts;
    /** End-to-end compile() latency; fixed memory, lock-free. */
    obs::LatencyHistogram latenciesMs;

    /**
     * Overload indicator: shed -> true; a push that observes the
     * queue back at half capacity or less -> false.
     */
    std::atomic<bool> degraded{false};

    /** Quarantine state per canonical key. Success erases its
     *  key; persistently failing keys stay resident — bounded by
     *  the number of distinct poison requests seen. */
    std::mutex poisonMu;
    std::unordered_map<std::string, PoisonState> poison;

    /**
     * Block while the queue is full when @p shedWaitMs < 0 (submit()
     * and compile()'s default); otherwise shed after that long.
     */
    Ticket submitImpl(const CompileRequest &request, int shedWaitMs);
};

CompileService::CompileService(ServeOptions opts)
    : impl_(new Impl(opts)), opts_(opts)
{
}

CompileService::~CompileService() = default;

int
CompileService::workers() const
{
    return impl_->workerCount;
}

namespace {

/**
 * Submit-side validation beyond the non-fatal parsers: every
 * request-derived condition that would reach a fatal()/panic()
 * inside a worker is rejected here as a structured Invalid result
 * instead, so bad data can never take the service down. Returns
 * the rejection reason, or empty when the request is safe.
 */
std::string
validateRequest(const Loop &loop, const MachineModel &machine,
                const PipelineOptions &options)
{
    if (loop.ddg.numOps() == 0)
        return "loop has no operations";
    if (options.forceUnroll < 0 || options.forceUnroll > 1024) {
        return strfmt("forceUnroll %d out of range [0, 1024]",
                      options.forceUnroll);
    }
    if (options.unrollMaxFactor < 1 ||
        options.unrollMaxFactor > 1024) {
        return strfmt("unrollMaxFactor %d out of range [1, 1024]",
                      options.unrollMaxFactor);
    }
    if (options.unrollMaxOps < 1 ||
        options.unrollMaxOps > (1 << 20)) {
        return strfmt("unrollMaxOps %d out of range [1, %d]",
                      options.unrollMaxOps, 1 << 20);
    }
    // The policy stops before u x live ops passes unrollMaxOps; a
    // forced factor obeys the same cap, or one short loop text
    // could ask for a body of a million ops.
    const std::int64_t forced_ops =
        static_cast<std::int64_t>(options.forceUnroll) *
        loop.ddg.liveOpCount();
    if (options.forceUnroll > 1 && forced_ops > options.unrollMaxOps) {
        return strfmt("forceUnroll %d x %d live ops = %lld exceeds "
                      "unrollMaxOps %d",
                      options.forceUnroll, loop.ddg.liveOpCount(),
                      static_cast<long long>(forced_ops),
                      options.unrollMaxOps);
    }
    // resMii panics when the body uses an FU class the machine
    // has zero units of.
    const std::vector<int> counts = loop.ddg.opCountByClass();
    for (int cls = 0; cls < kNumFuClasses; ++cls) {
        if (counts[static_cast<size_t>(cls)] > 0 &&
            machine.totalFus(static_cast<FuClass>(cls)) == 0) {
            return strfmt(
                "loop needs %s units but machine '%s' has none",
                fuClassName(static_cast<FuClass>(cls)),
                machine.describe().c_str());
        }
    }
    // On queue machines the single-use prepass inserts Copy ops
    // for multi-use values (and clustered scheduling inserts
    // Moves); both need the copy unit, so a copy-less queue
    // machine would hit the same resMii panic post-prepass.
    if (machine.regFileKind() == RegFileKind::Queues &&
        machine.totalFus(FuClass::Copy) == 0) {
        bool needs_copies = machine.clustered();
        for (OpId id = 0;
             !needs_copies && id < loop.ddg.numOps(); ++id) {
            int uses = 0;
            for (EdgeId e : loop.ddg.op(id).outs) {
                if (loop.ddg.edgeActive(e) &&
                    loop.ddg.edge(e).kind == DepKind::Flow)
                    ++uses;
            }
            needs_copies = uses > 1;
        }
        if (needs_copies) {
            return strfmt("machine '%s' is a queue machine with "
                          "no copy units but the loop needs "
                          "copies",
                          machine.describe().c_str());
        }
    }
    return "";
}

} // namespace

CompileService::Ticket
CompileService::Impl::submitImpl(const CompileRequest &request,
                                 int shedWaitMs)
{
    requests.inc();
    Ticket ticket;

    // Per-request trace, created only when armed (one relaxed
    // load on the disarmed path). The guard commits it on every
    // return and every throw out of this frame, except when a
    // worker took it over with the job.
    TraceCommit commit;
    obs::Trace *tr = nullptr;
    if (obs::traceArmed()) {
        commit.trace = std::make_shared<obs::Trace>();
        tr = commit.trace.get();
        tr->openSpan("request");
    }

    // Answers a request that owns no cache entry: Invalid,
    // Quarantined, or a fault before acquire().
    auto immediate = [&](std::shared_ptr<CompileResult> result) {
        count(result->status);
        std::promise<ResultPtr> p;
        p.set_value(std::move(result));
        ticket.future = p.get_future().share();
        return ticket;
    };
    // Answers a request from an existing entry: a Hit when it is
    // ready, else Coalesced onto the compile in flight.
    auto cached = [&](bool ready) {
        ticket.source = ready ? Source::Hit : Source::Coalesced;
        (ready ? hits : coalesced).inc();
        return ticket;
    };

    // Non-null from the moment acquire() makes this request the
    // owner of a new cache entry until the queue takes the job: a
    // shed or a fault in between must still resolve and retire the
    // entry, or coalesced waiters hang on a future nobody owns.
    std::unique_ptr<Job> job;

    try {
        // Fast path: a verbatim repeat of an earlier request
        // resolves through the raw-text alias map without
        // re-parsing anything.
        std::string raw_key;
        raw_key.reserve(request.loopText.size() +
                        request.machineText.size() + kOptionsKeyBytes);
        raw_key += request.loopText;
        raw_key += '\x01';
        raw_key += request.machineText;
        raw_key += '\x01';
        appendOptionsKey(raw_key, request.options);
        const std::uint64_t raw_hash = fnv1a64(raw_key);
        std::shared_ptr<CacheEntry> alias;
        {
            obs::ScopedSpan span(tr, "cache.lookup");
            faultPoint("serve.cache.lookup");
            alias = aliases.find(raw_key, raw_hash);
        }
        if (alias != nullptr) {
            ticket.future = alias->future;
            ticket.key = raw_hash;
            return cached(alias->ready.load(std::memory_order_acquire));
        }

        // Reject bad request data without involving a worker: a
        // worker-side fatal() would take down the whole service,
        // so everything data-dependent — both texts, the
        // scheduler choice, and the pipeline-reachable panics
        // (validateRequest) — is answered with an error result.
        auto reject = [&](std::string why) {
            return immediate(
                makeResult(CompileStatus::Invalid, std::move(why)));
        };

        // Canonicalize: parse both texts and re-serialize, so
        // every spelling of the same request (comments,
        // whitespace, id gaps) lands on the same cache key. The
        // machine is parsed first: flow-edge latencies in the
        // loop format come from a latency model at parse time,
        // and the machine's (which machineToText round-trips,
        // overrides included) is the one the request names — the
        // direct pipeline sees the same edges as long as the loop
        // was built against the same model.
        std::string error;
        MachineModel machine = MachineModel::unclustered(1);
        if (!machineFromText(request.machineText, machine, error))
            return reject(std::move(error));
        Loop loop;
        if (!loopFromText(request.loopText, loop, error,
                          machine.latency()))
            return reject(std::move(error));

        PipelineOptions options = request.options;
        if (options.scheduler.empty())
            options.scheduler =
                machine.clustered() ? "dms" : "ims";
        std::unique_ptr<Scheduler> sched =
            SchedulerRegistry::instance().create(options.scheduler);
        if (sched == nullptr) {
            return reject(strfmt("unknown scheduler '%s'",
                                 options.scheduler.c_str()));
        }
        if (!sched->supports(machine)) {
            return reject(strfmt(
                "scheduler '%s' does not support machine '%s'",
                options.scheduler.c_str(),
                machine.describe().c_str()));
        }
        std::string invalid_reason =
            validateRequest(loop, machine, options);
        if (!invalid_reason.empty())
            return reject(std::move(invalid_reason));
        // LoopRun extraction needs the perf stage; force it so a
        // caller's perf=false cannot produce an unusable cached
        // entry.
        options.perf = true;

        const std::string loop_text = loopToText(loop);
        const std::string machine_text = machineToText(machine);
        std::string key;
        key.reserve(loop_text.size() + machine_text.size() +
                    kOptionsKeyBytes);
        key += loop_text;
        key += '\x01';
        key += machine_text;
        key += '\x01';
        appendOptionsKey(key, options);
        ticket.key = fnv1a64(key);

        if (quarantineReject(key)) {
            return immediate(makeResult(
                CompileStatus::Quarantined,
                strfmt("key quarantined after %d consecutive "
                       "failures",
                       opts.quarantineAfter)));
        }

        std::shared_ptr<CacheEntry> entry;
        ResultCache::Lookup found;
        {
            obs::ScopedSpan span(tr, "cache.insert");
            found = cache.acquire(key, ticket.key, entry);
            ticket.future = entry->future;
            if (found == ResultCache::Lookup::Inserted) {
                job.reset(new Job{entry, std::move(key), ticket.key,
                                  std::move(loop), std::move(machine),
                                  std::move(options), nullptr,
                                  nullptr});
            }
            faultPoint("serve.cache.insert");
            aliases.insertAlias(raw_key, raw_hash, entry);
        }
        if (found != ResultCache::Lookup::Inserted)
            return cached(found == ResultCache::Lookup::Hit);
        misses.inc();

        if (request.deadlineMs > 0) {
            job->cancel = std::make_shared<CancelToken>();
            job->cancel->setDeadline(
                std::chrono::steady_clock::now() +
                std::chrono::milliseconds(request.deadlineMs));
            ticket.cancel = job->cancel;
        }

        {
            // The span closes before the handoff below: once the
            // job is in the queue a worker may own the trace, so
            // this thread must not touch it afterwards.
            obs::ScopedSpan span(tr, "queue.push");
            faultPoint("serve.queue.push");
        }
        job->trace = std::move(commit.trace);
        if (!queue.push(job, shedWaitMs)) {
            // Shed: the job was not consumed, so it hands the trace
            // back for this thread to commit, and its entry resolves
            // and retires so the next request for the key retries.
            commit.trace = std::move(job->trace);
            if (tr != nullptr)
                tr->failSpan(0, "shed");
            degraded.store(true, std::memory_order_release);
            finishCompile(
                *job, makeResult(CompileStatus::Rejected,
                                 strfmt("queue full (%d deep): request "
                                        "shed after %d ms",
                                        opts.queueDepth, shedWaitMs)));
            return ticket;
        }
        if (degraded.load(std::memory_order_relaxed) &&
            queue.depth() * 2 <= opts.queueDepth)
            degraded.store(false, std::memory_order_release);
        return ticket;
    } catch (const std::exception &e) {
        std::string note;
        std::shared_ptr<CompileResult> result =
            interruptedResult(e, note);
        if (tr != nullptr)
            tr->failSpan(0, note);
        if (job == nullptr)
            return immediate(std::move(result));
        finishCompile(*job, std::move(result));
        return ticket;
    }
}

CompileService::Ticket
CompileService::submit(const CompileRequest &request)
{
    return impl_->submitImpl(request, /*shedWaitMs=*/-1);
}

CompileService::ResultPtr
CompileService::compile(const CompileRequest &request, int maxWaitMs)
{
    auto t0 = std::chrono::steady_clock::now();
    Ticket ticket = impl_->submitImpl(request, maxWaitMs);
    ResultPtr result;
    if (request.deadlineMs > 0 &&
        ticket.future.wait_until(
            t0 + std::chrono::milliseconds(request.deadlineMs)) ==
            std::future_status::timeout) {
        // Client-side expiry: fire the compile's token (the
        // worker stops at the next stage boundary and retires the
        // entry) and answer this caller right now.
        if (ticket.cancel != nullptr)
            ticket.cancel->cancel();
        result = makeResult(CompileStatus::Expired,
                            strfmt("deadline of %d ms exceeded",
                                   request.deadlineMs));
        impl_->count(CompileStatus::Expired);
    } else {
        result = ticket.future.get();
    }
    auto t1 = std::chrono::steady_clock::now();
    double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    // Wait-free: one bucket fetch_add, no lock, no allocation.
    impl_->latenciesMs.record(ms);
    return result;
}

obs::MetricsSnapshot
CompileService::metrics() const
{
    const Impl &im = *impl_;
    obs::MetricsSnapshot snap;
    // The histogram before the counters: a latency is recorded
    // after its request was counted, so this order keeps
    // serve.latency_ms.count <= serve.requests (an identity
    // obs.metrics-consistency lints) even against concurrent
    // recording.
    snap.addHistogram("serve.latency_ms", im.latenciesMs.snapshot());
    snap.addCounter("serve.requests", im.requests.value());
    snap.addCounter("serve.hits", im.hits.value());
    snap.addCounter("serve.coalesced", im.coalesced.value());
    snap.addCounter("serve.misses", im.misses.value());
    snap.addCounter("serve.invalid", im.invalid.value());
    snap.addCounter("serve.failed", im.failed.value());
    snap.addCounter("serve.expired", im.expired.value());
    snap.addCounter("serve.shed", im.shed.value());
    snap.addCounter("serve.quarantined", im.quarantined.value());
    snap.addCounter("serve.sched_attempts", im.schedAttempts.value());
    snap.addCounter("cache.evictions",
                    im.cache.evictions() + im.aliases.evictions());
    snap.addCounter("cache.retired",
                    im.cache.retired() + im.aliases.retired());
    snap.addGauge("cache.entries",
                  static_cast<double>(im.cache.size()));
    snap.addGauge("serve.degraded",
                  im.degraded.load(std::memory_order_relaxed) ? 1.0
                                                               : 0.0);
    snap.addGauge("serve.queue_depth",
                  static_cast<double>(im.queue.depth()));
    snap.addGauge("serve.queue_depth_peak",
                  static_cast<double>(im.queue.peak()));
    snap.addGauge("serve.queue_capacity",
                  static_cast<double>(opts_.queueDepth));
    for (const FaultSiteStats &f : faultStats()) {
        snap.addCounter("fault." + f.site + ".hits", f.hits);
        snap.addCounter("fault." + f.site + ".fired", f.fired);
    }
    snap.sortByName();
    return snap;
}

} // namespace dms
