#ifndef DMS_OBS_TRACE_H
#define DMS_OBS_TRACE_H

/**
 * @file
 * Per-request tracing: a Trace is a flat vector of nested spans
 * opened at the same boundaries fault injection and cancel polling
 * already instrument — the submit-side cache lookup/insert and
 * queue push, the worker's compile, every pipeline stage, and each
 * II-ladder rung inside the schedulers.
 *
 * ## Zero cost when disarmed
 *
 * Tracing follows the faultPoint() discipline exactly: the armed
 * check is one relaxed atomic load plus a never-taken branch
 * (traceArmed()), and every deeper hook is behind a null Trace
 * pointer. With DMS_TRACE unset no span is ever allocated, no
 * clock is read, and schedules stay bit-identical — the golden FNV
 * hashes and the sched_hotpath perf gate pin this.
 *
 * ## Threading
 *
 * A Trace is owned by one request and touched by one thread at a
 * time: the submitting client up to the queue push, then the
 * worker (the queue's push/pop pair orders the handoff). The
 * schedulers' rung spans reach the active trace through a
 * thread-local (currentTrace), set by the worker around runLoop,
 * so a scheduler only records on the thread that owns the trace;
 * any other thread sees a null thread-local and records nothing.
 * Finished traces are committed to the process-wide bounded
 * TraceLog, which dmsd drains into Chrome trace_event JSON
 * (--trace-out) — one event per line so dmslint's
 * obs.trace-nesting checker can report 1-based line numbers.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dms {
namespace obs {

namespace detail {
/** Non-zero iff tracing is armed; the one load on the fast path. */
extern std::atomic<int> g_traceArmed;
} // namespace detail

/**
 * True while tracing is armed. Free when disarmed: one relaxed
 * load and a never-taken branch, exactly like faultPoint().
 */
inline bool
traceArmed()
{
    return __builtin_expect(detail::g_traceArmed.load(
                                std::memory_order_relaxed) != 0,
                            0);
}

/** One span of a trace; parent indexes the owning Trace's spans. */
struct TraceSpan
{
    std::string name;
    int parent = -1; ///< span index, -1 for the root
    double startUs = 0.0; ///< relative to the trace's origin
    double durUs = 0.0;
    bool failed = false;
    std::string note; ///< fault site, "ii=N", ... (may be empty)

    /**
     * 1-based line of this span's event in the JSON it was parsed
     * from; 0 for live traces. Diagnostic locations only.
     */
    int srcLine = 0;
};

/**
 * One request's span tree, stored flat (parent indices). Spans
 * open and close in stack order; finish() closes anything left
 * open (the fault-unwind case).
 */
class Trace
{
  public:
    Trace();

    /** Open a child of the innermost open span; returns its id. */
    int openSpan(const char *name);

    /** Close span @p id (must be the innermost open span). */
    void closeSpan(int id);

    /** Mark @p id failed, appending @p note when non-empty. */
    void failSpan(int id, const std::string &note);

    /** Attach @p note to span @p id (replacing any previous). */
    void noteSpan(int id, std::string note);

    /** Close every still-open span, innermost first. */
    void finish();

    const std::vector<TraceSpan> &spans() const { return spans_; }

  private:
    double nowUs() const;

    std::chrono::steady_clock::time_point t0_;
    std::vector<TraceSpan> spans_;
    std::vector<int> open_; ///< stack of open span ids
};

/**
 * RAII span: opens on construction (no-op for a null trace),
 * closes on destruction, and marks the span failed when the scope
 * is left by an exception (std::uncaught_exceptions delta) — which
 * is how injected faults become annotated failing spans.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Trace *trace, const char *name)
        : trace_(trace),
          id_(trace ? trace->openSpan(name) : -1),
          uncaught_(trace ? std::uncaught_exceptions() : 0)
    {
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    ~ScopedSpan()
    {
        if (trace_ == nullptr)
            return;
        if (std::uncaught_exceptions() > uncaught_)
            trace_->failSpan(id_, "");
        trace_->closeSpan(id_);
    }

    /** Attach a note to the span; no-op for a null trace. */
    void
    note(std::string text)
    {
        if (trace_ != nullptr)
            trace_->noteSpan(id_, std::move(text));
    }

  private:
    Trace *trace_;
    int id_;
    int uncaught_;
};

/** The worker's active trace for this thread; null when none. */
Trace *currentTrace();

/** RAII binder for currentTrace around a worker's compile. */
class CurrentTraceScope
{
  public:
    explicit CurrentTraceScope(Trace *trace);
    ~CurrentTraceScope();

    CurrentTraceScope(const CurrentTraceScope &) = delete;
    CurrentTraceScope &operator=(const CurrentTraceScope &) =
        delete;

  private:
    Trace *previous_;
};

/**
 * Process-wide bounded collector of finished traces. commit()
 * drops (and counts) past the cap so a long-lived traced daemon
 * stays bounded. Only touched when tracing is armed.
 */
class TraceLog
{
  public:
    static TraceLog &instance();

    /** Replace the cap (>= 1); keeps already-committed traces. */
    void setCap(int cap);

    void commit(std::shared_ptr<const Trace> trace);

    std::vector<std::shared_ptr<const Trace>> traces() const;

    /** Traces dropped because the log was at capacity. */
    std::uint64_t dropped() const;

    /** Drop everything and zero the dropped counter. */
    void clear();

  private:
    TraceLog() = default;

    struct State;
    State &state() const;
};

/**
 * Arm tracing process-wide with a TraceLog cap of @p capTraces.
 * Like armFaults, not safe against in-flight compiles: arm before
 * starting a service, disarm after draining it.
 */
void armTrace(int capTraces);

/** Disarm; committed traces stay until TraceLog::clear(). */
void disarmTrace();

/**
 * Arm from DMS_TRACE=1 (cap from DMS_TRACE_CAP, default 256).
 * Returns true iff tracing is armed afterwards. Idempotent.
 */
bool armTraceFromEnv();

/**
 * Chrome trace_event JSON for @p traces: a JSON array with one
 * complete ("ph":"X") event per line, tid = 1-based trace index,
 * args carrying the span id/parent/failed/note — everything the
 * strict parser below needs to rebuild the span trees.
 */
std::string
tracesToJson(const std::vector<std::shared_ptr<const Trace>> &traces);

/**
 * Parse tracesToJson output (or any one-event-per-line trace_event
 * array) back into span trees grouped by tid. False with a
 * "line N: ..." @p error on malformed JSON, unknown keys, or a
 * non-"X" phase; each parsed span records its srcLine.
 */
bool tracesFromJson(const std::string &json,
                    std::vector<std::vector<TraceSpan>> &out,
                    std::string &error);

} // namespace obs
} // namespace dms

#endif // DMS_OBS_TRACE_H
