#ifndef DMS_SERVE_NET_H
#define DMS_SERVE_NET_H

/**
 * @file
 * The TCP front-end of the compile service: a line-oriented wire
 * protocol ("dms wire v1") carrying the repo's existing canonical
 * text formats over a socket, a NetServer that answers each
 * request line through CompileService::compile's shedding path
 * (deadline wait and latency record included), and a NetClient
 * for the loadgen and tests.
 *
 * ## Wire format
 *
 * One message per line, fields separated by tabs, every message
 * led by the magic token `dms1`. Field values are `key=value`
 * tokens with backslash escaping of the four bytes the framing
 * reserves: `\\` `\n` `\t` `\r` — which is exactly what lets the
 * multi-line loopToText/machineToText formats ride in a single
 * line. Unknown keys are framing errors (strictness over
 * forward-compat: the protocol is versioned by the magic).
 *
 * Requests:
 *
 *     dms1 <TAB> compile <TAB> loop=<esc> <TAB> machine=<esc>
 *          [<TAB> sched=<esc>] [<TAB> deadline_ms=<int>]
 *          [<TAB> unroll=<int>] [<TAB> umax=<int>]
 *          [<TAB> uops=<int>]  [<TAB> verify=<0|1>]
 *          [<TAB> ra=<0|1>]    [<TAB> cg=<0|1>]
 *     dms1 <TAB> metrics
 *     dms1 <TAB> trace
 *
 * Responses:
 *
 *     dms1 <TAB> result <TAB> status=<name> <TAB> parsed=<0|1>
 *          <TAB> ok=<0|1> <TAB> error=<esc> <TAB> fail_site=<esc>
 *          <TAB> ii=.. mii=.. stages=.. unroll=.. moves=..
 *          copies=.. iter=.. cycles=.. useful=.. qfiles=..
 *          qreq=.. qstore=.. qlink=.. <TAB> kernel=<esc>
 *     dms1 <TAB> metricsr <TAB> text=<esc metricsToText>
 *     dms1 <TAB> tracer <TAB> text=<esc tracesToJson>
 *
 * The result line carries every LoopRun field plus the emitted
 * kernel text, so a TCP round trip is bit-identical to the
 * in-process CompileResult (the socket-parity test pins this).
 * The `metrics` response carries every serving counter: the
 * service's snapshot plus the front-end's net.* counters.
 *
 * A line that fails framing (an unknown verb included) is counted
 * in net.framing_rejects and answered with a structured Invalid
 * result: never a dropped connection, never a crash. Each framing
 * reject is also routed through CompileService::submit() as an
 * unparseable request so the service's serve.invalid counter
 * covers it (the dmslint identity net.framing_rejects <=
 * serve.invalid).
 *
 * Fault sites: `serve.net.accept` (connection dropped at accept),
 * `serve.net.read` and `serve.net.write` (connection dropped
 * mid-stream) extend the DMS_FAULTS surface across the network
 * boundary; clients see EOF and retry under their RetryPolicy.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "serve/service.h"

namespace dms {

/** Escape `\` `\n` `\t` `\r` so @p s fits in one wire field. */
std::string wireEscape(std::string_view s);

/**
 * Reverse wireEscape. False on a dangling `\` or an unknown
 * escape; @p out is the prefix decoded so far.
 */
bool wireUnescape(std::string_view s, std::string &out);

/** Parsed form of one request line. */
struct WireRequest
{
    enum class Verb : std::uint8_t {
        Compile, ///< one CompileRequest
        Metrics, ///< full metrics snapshot (dmsmetrics v1 text)
        Trace,   ///< collected traces (Chrome trace_event JSON)
    };

    Verb verb = Verb::Compile;
    CompileRequest request; ///< valid when verb == Compile
};

/** Serialize @p req into one request line (no trailing newline). */
std::string wireRequestToLine(const WireRequest &req);

/**
 * Parse one request line. False on any framing error (bad magic,
 * unknown verb or key, bad escape or integer, missing loop or
 * machine) with @p error naming the offense.
 */
bool wireRequestFromLine(const std::string &line, WireRequest &out,
                         std::string &error);

/** Serialize a compile result into one response line. */
std::string wireResultToLine(const CompileResult &result);

/** Parse a result response line; false on framing errors. */
bool wireResultFromLine(const std::string &line, CompileResult &out,
                        std::string &error);

/** Serialize a metrics-snapshot response line. */
std::string wireMetricsToLine(const std::string &metricsText);

/** Parse a metrics response line back into the snapshot text. */
bool wireMetricsFromLine(const std::string &line,
                         std::string &metricsText,
                         std::string &error);

/** Serialize a trace-export response line (trace_event JSON). */
std::string wireTraceToLine(const std::string &traceJson);

/** Parse a trace response line back into the JSON text. */
bool wireTraceFromLine(const std::string &line,
                       std::string &traceJson, std::string &error);

/** Network front-end shape knobs. */
struct NetServerOptions
{
    /** TCP port to bind on 127.0.0.1; 0 picks an ephemeral port. */
    int port = 0;

    /**
     * Longest accepted request line. A line that exceeds this
     * without a newline is rejected as framing and the rest of it
     * discarded; the connection survives.
     */
    int maxLineBytes = 1 << 20;

    /**
     * Shed wait forwarded to CompileService::compile() per network
     * request: the bounded queue stays the backpressure point, and
     * an overloaded server answers Rejected (which clients retry)
     * instead of stalling the connection forever.
     */
    int submitWaitMs = 200;
};

/**
 * The TCP listener: accept thread + one thread per connection,
 * each connection handling one request line at a time against the
 * shared CompileService. The threads of closed connections are
 * joined as new ones are accepted, and accept waits out descriptor
 * or memory exhaustion (EMFILE, ENFILE, ENOBUFS, ENOMEM) instead
 * of giving up. stop() (or destruction) closes every socket, joins
 * every thread, and leaves the service drained by its own shutdown
 * path.
 */
class NetServer
{
  public:
    explicit NetServer(CompileService &service,
                       NetServerOptions opts = {});
    ~NetServer();

    NetServer(const NetServer &) = delete;
    NetServer &operator=(const NetServer &) = delete;

    /** Bind + listen + start accepting; false with @p error set. */
    bool start(std::string &error);

    /** Idempotent: close all sockets and join all threads. */
    void stop();

    /** The bound port (resolves option port 0). */
    int port() const;

    /**
     * The service's metrics snapshot with this front-end's five
     * net.* counters appended (re-sorted) — the snapshot the
     * `metrics` verb serves and dmsd writes via --metrics-out.
     */
    obs::MetricsSnapshot metrics() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Blocking client for the wire protocol: one socket, one request
 * in flight. Transport errors (connect refused, EOF mid-response,
 * unparseable response) return false — the caller treats them as
 * a retryable Failed and reconnects; they never throw.
 */
class NetClient
{
  public:
    NetClient();
    ~NetClient();

    NetClient(const NetClient &) = delete;
    NetClient &operator=(const NetClient &) = delete;

    /**
     * Connect to @p host:@p port, retrying until @p timeoutMs
     * elapses (covers the daemon still starting up). False with
     * @p error set when the deadline passes unconnected.
     */
    bool connect(const std::string &host, int port, int timeoutMs,
                 std::string &error);

    /** Drop the socket; connect() may be called again. */
    void close();

    bool connected() const;

    /**
     * One compile round trip. True iff a well-formed result line
     * came back (@p out then carries the service's verdict,
     * including structured failures); false on transport errors,
     * after which the socket is closed.
     */
    bool compile(const CompileRequest &request, CompileResult &out,
                 std::string &error);

    /** One metrics round trip; @p text gets dmsmetrics v1 text. */
    bool fetchMetrics(std::string &text, std::string &error);

    /** One trace round trip; @p text gets trace_event JSON. */
    bool fetchTrace(std::string &text, std::string &error);

  private:
    bool roundTrip(const std::string &line, std::string &response,
                   std::string &error);

    int fd_ = -1;
    std::string rbuf_;
};

} // namespace dms

#endif // DMS_SERVE_NET_H
