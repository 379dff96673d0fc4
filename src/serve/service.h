#ifndef DMS_SERVE_SERVICE_H
#define DMS_SERVE_SERVICE_H

/**
 * @file
 * Compilation-as-a-service: a long-lived CompileService that turns
 * the one-shot staged pipeline into a request/response system.
 *
 *   - Requests carry the *textual* formats the repo already speaks:
 *     a loop in workload/text form and a machine in machine/desc
 *     form, plus pipeline options. That makes requests storable,
 *     diffable, and transport-agnostic.
 *   - A bounded MPMC queue feeds a pool of worker threads; each
 *     worker owns one CompilationContext, so arenas (body graph,
 *     scheduler worklists, reservation tables) are reused across
 *     requests exactly like the evaluation runner reuses them
 *     across matrix cells.
 *   - Results are memoized in a sharded cache keyed by the FNV hash
 *     of the canonical request text (loopToText/machineToText
 *     round-trips plus the option fields). Identical in-flight
 *     requests coalesce onto one compilation (single-flight);
 *     identical later requests are pure lookups returning the
 *     bit-identical cached result.
 *
 * dmsd serves scripts, a generated load or TCP clients
 * (serve/net.h) against it, and bench/serve_throughput measures its
 * warm-vs-cold throughput.
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "core/pipeline.h"
#include "eval/runner.h"
#include "obs/metrics.h"
#include "serve/cache.h"

namespace dms {

/** Service shape knobs. */
struct ServeOptions
{
    /** Worker threads; 0 picks defaultJobs() (DMS_JOBS). */
    int workers = 0;

    /** Bounded request-queue capacity (submitters block when full). */
    int queueDepth = 256;

    /** Result-cache shard count. */
    int shards = 8;

    /** Result-cache capacity (ready entries across all shards). */
    int cacheCapacity = 4096;

    /**
     * Poison quarantine: a canonical key whose compile fails this
     * many consecutive times is quarantined — further submits get
     * an immediate Quarantined rejection instead of a recompile.
     */
    int quarantineAfter = 3;

    /**
     * After this many quarantined rejections of a key, one
     * half-open probe compile is allowed through; success clears
     * the quarantine, failure re-arms the rejection window.
     */
    int quarantineProbe = 16;

    /**
     * Environment overrides via the strict parse path (garbage,
     * trailing junk and overflow rejected with a warning):
     * DMS_SERVE_QUEUE_DEPTH and DMS_SERVE_CACHE_CAP.
     */
    static ServeOptions fromEnv();
};

/** One compilation request in the shared text formats. */
struct CompileRequest
{
    std::string loopText;    ///< workload/text format
    std::string machineText; ///< machine/desc format

    /**
     * Pipeline configuration. An empty scheduler name resolves to
     * "dms" on clustered machines and "ims" otherwise (the dmsc
     * default). The MII hint fields are ignored for keying — the
     * pipeline recomputes them per compile.
     */
    PipelineOptions options;

    /**
     * Deadline budget in milliseconds; 0 means none. The deadline
     * is a *client* property, excluded from the cache key: the
     * worker polls it at pipeline stage boundaries (an expired
     * compile resolves as Expired and is retired from the cache),
     * and compile() waits at most this long before synthesizing an
     * Expired result for this caller (see compile()).
     */
    int deadlineMs = 0;
};

/** Terminal status of a request; exactly one per request. */
enum class CompileStatus : std::uint8_t {
    Ok,            ///< schedule found; run/kernelText valid
    Unschedulable, ///< pipeline ran, II search hit its cap (cached)
    Invalid,       ///< request text/options failed validation
    Failed,        ///< compile threw (fault or bug); retried later
    Expired,       ///< deadline passed before a result
    Rejected,      ///< load shed: queue stayed full past the wait
    Quarantined,   ///< poisoned key rejected without a recompile
};

/** Number of CompileStatus values (Quarantined is the last). */
inline constexpr size_t kCompileStatusCount =
    static_cast<size_t>(CompileStatus::Quarantined) + 1;

/** Lowercase status name, e.g. "quarantined". */
const char *compileStatusName(CompileStatus status);

/**
 * What the service returns (and caches) for one request. The
 * parsed and ok flags restate status: deriveResultFlags() sets
 * them, for every result the service builds and every result line
 * the wire reader accepts. They stay only until a benchmark change
 * drops perfbench's use of them.
 */
struct CompileResult
{
    /** The terminal status; every other field derives from it. */
    CompileStatus status = CompileStatus::Invalid;

    /** parsed == (status != Invalid). */
    bool parsed = false;

    /** Failure reason for every non-Ok status ("line N: ..."). */
    std::string error;

    /**
     * The fault site that killed the compile, for Failed results
     * produced by an injected fault; empty otherwise.
     */
    std::string failSite;

    /** Schedule found: ok == run.ok == (status == Ok). */
    bool ok = false;

    /** The sweep-cell summary, identical to the direct-path run. */
    LoopRun run;

    /**
     * Full pipelined code (emitPipelinedCode) when the request had
     * codegen enabled and scheduling succeeded; empty otherwise.
     */
    std::string kernelText;
};

/** Set @p result's parsed, ok and run.ok from its status. */
void deriveResultFlags(CompileResult &result);

/**
 * The long-lived compile server. Thread-safe: any number of client
 * threads may submit()/compile() concurrently. Destruction drains
 * the queue (every accepted request is answered) and joins the
 * workers.
 */
class CompileService
{
  public:
    using ResultPtr = std::shared_ptr<const CompileResult>;

    /**
     * How the cache answered a submit. A request the cache never
     * answered (Invalid, Quarantined, shed, a submit-path fault)
     * reads Miss; its result's status says why.
     */
    enum class Source : std::uint8_t {
        Miss,      ///< not answered by the cache
        Coalesced, ///< duplicate of an in-flight compilation
        Hit,       ///< served from the cache
    };

    /** Handle for an accepted request. */
    struct Ticket
    {
        std::shared_future<ResultPtr> future;
        Source source = Source::Miss;

        /**
         * FNV hash of the cache key that resolved this request —
         * the canonical key, or the raw-spelling alias key on the
         * fast path. A diagnostic for logs, not a correlation id:
         * two spellings of one request can carry different
         * hashes (0 for Invalid).
         */
        std::uint64_t key = 0;

        /**
         * The compile's cancellation token when this submit
         * queued one with a deadline; compile() fires it when the
         * client-side wait times out so the worker stops burning
         * on an abandoned request.
         */
        std::shared_ptr<CancelToken> cancel;
    };

    explicit CompileService(ServeOptions opts = {});
    ~CompileService();

    CompileService(const CompileService &) = delete;
    CompileService &operator=(const CompileService &) = delete;

    /**
     * Asynchronous entry point: canonicalize, consult the cache,
     * and (on a miss) enqueue the compilation. Blocks only while
     * the bounded queue is full.
     */
    Ticket submit(const CompileRequest &request);

    /**
     * Synchronous entry point, shared by in-process callers, the
     * load generator and the TCP front-end: submit(), then wait for
     * the result. With @p maxWaitMs >= 0 the submit sheds instead
     * of blocking: it waits at most that long for queue space and
     * resolves the request as a structured Rejected result when
     * the queue stays full (0 sheds at once). With a deadline the
     * wait ends at it: the compile's token is cancelled and this
     * caller gets an Expired result. Records the end-to-end latency
     * into serve.latency_ms, once per call.
     *
     * serve.expired counts Expired results: one per caller whose
     * deadline wait ran out here, plus one per compile that
     * resolved Expired (a worker's cancel poll or a submit-path
     * cancel). A compile abandoned mid-flight therefore counts
     * twice: once for its caller, once for the worker.
     */
    ResultPtr compile(const CompileRequest &request,
                      int maxWaitMs = -1);

    /**
     * The service's telemetry ("dmsmetrics v1" via metricsToText):
     * every serve.* counter, the serve.latency_ms histogram, the
     * queue/cache gauges, the scheduler-attempt counter, and one
     * fault.<site>.{hits,fired} counter pair per observed fault
     * site. A lock-free relaxed sweep of the live cells.
     */
    obs::MetricsSnapshot metrics() const;

    const ServeOptions &options() const { return opts_; }

    /** Resolved worker count (>= 1). */
    int workers() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
    ServeOptions opts_;
};

} // namespace dms

#endif // DMS_SERVE_SERVICE_H
