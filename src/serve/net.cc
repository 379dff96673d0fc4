#include "serve/net.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <iterator>
#include <list>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/trace.h"
#include "support/diag.h"
#include "support/faultinject.h"
#include "support/strings.h"

namespace dms {

std::string
wireEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            out += c;
        }
    }
    return out;
}

bool
wireUnescape(std::string_view s, std::string &out)
{
    out.clear();
    out.reserve(s.size());
    for (size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\') {
            out += s[i];
            continue;
        }
        if (++i >= s.size())
            return false; // dangling backslash
        switch (s[i]) {
        case '\\':
            out += '\\';
            break;
        case 'n':
            out += '\n';
            break;
        case 't':
            out += '\t';
            break;
        case 'r':
            out += '\r';
            break;
        default:
            return false; // unknown escape
        }
    }
    return true;
}

namespace {

constexpr char kMagic[] = "dms1";

bool
compileStatusFromName(std::string_view name, CompileStatus &out)
{
    for (size_t s = 0; s < kCompileStatusCount; ++s) {
        const auto status = static_cast<CompileStatus>(s);
        if (name == compileStatusName(status)) {
            out = status;
            return true;
        }
    }
    return false;
}

/** Strict signed 64-bit parse (the wire carries LoopRun longs). */
bool
parseWireLong(std::string_view s, long long &out)
{
    if (s.empty())
        return false;
    size_t i = 0;
    bool neg = false;
    if (s[0] == '-') {
        neg = true;
        i = 1;
        if (s.size() == 1)
            return false;
    }
    long long v = 0;
    for (; i < s.size(); ++i) {
        if (s[i] < '0' || s[i] > '9')
            return false;
        int digit = s[i] - '0';
        if (v > (0x7fffffffffffffffLL - digit) / 10)
            return false; // overflow
        v = v * 10 + digit;
    }
    out = neg ? -v : v;
    return true;
}

void
appendField(std::string &line, const char *key,
            std::string_view value)
{
    line += '\t';
    line += key;
    line += '=';
    line += wireEscape(value);
}

/** Split one `key=value` token; false when '=' is absent. */
bool
splitField(std::string_view token, std::string_view &key,
           std::string_view &value)
{
    const size_t eq = token.find('=');
    if (eq == std::string_view::npos)
        return false;
    key = token.substr(0, eq);
    value = token.substr(eq + 1);
    return true;
}

/**
 * Split field @p i of a request or result line's @p tokens. False
 * with @p error set when it is not key=value, or when a field
 * before it (from 2, past the magic and the verb) has its key.
 */
bool
fieldAt(const std::vector<std::string> &tokens, size_t i,
        std::string_view &key, std::string_view &value,
        std::string &error)
{
    if (!splitField(tokens[i], key, value)) {
        error = strfmt("field %zu is not key=value", i);
        return false;
    }
    for (size_t j = 2; j < i; ++j) {
        const std::string &t = tokens[j];
        if (t.size() > key.size() && t[key.size()] == '=' &&
            t.compare(0, key.size(), key) == 0) {
            error = strfmt("duplicate key '%.*s'",
                           static_cast<int>(key.size()), key.data());
            return false;
        }
    }
    return true;
}

/** One `<verb> text=<esc>` response line (metricsr, tracer). */
std::string
textResponseToLine(const char *verb, const std::string &text)
{
    std::string line = kMagic;
    line += '\t';
    line += verb;
    appendField(line, "text", text);
    return line;
}

/** Parse a textResponseToLine line; @p what names it in errors. */
bool
textResponseFromLine(const std::string &line, const char *verb,
                     const char *what, std::string &text,
                     std::string &error)
{
    const std::vector<std::string> tokens = split(line, '\t');
    if (tokens.size() != 3 || tokens[0] != kMagic ||
        tokens[1] != verb) {
        error = strfmt("not a %s response line", what);
        return false;
    }
    std::string_view key;
    std::string_view value;
    if (!splitField(tokens[2], key, value) || key != "text") {
        error = strfmt("%s response wants text=", what);
        return false;
    }
    if (!wireUnescape(value, text)) {
        error = strfmt("bad escape in %s text", what);
        return false;
    }
    return true;
}

} // namespace

std::string
wireRequestToLine(const WireRequest &req)
{
    std::string line = kMagic;
    if (req.verb == WireRequest::Verb::Metrics) {
        line += "\tmetrics";
        return line;
    }
    if (req.verb == WireRequest::Verb::Trace) {
        line += "\ttrace";
        return line;
    }
    const CompileRequest &r = req.request;
    line += "\tcompile";
    appendField(line, "loop", r.loopText);
    appendField(line, "machine", r.machineText);
    appendField(line, "sched", r.options.scheduler);
    appendInt(line, "\tdeadline_ms=", r.deadlineMs);
    appendInt(line, "\tunroll=", r.options.forceUnroll);
    appendInt(line, "\tumax=", r.options.unrollMaxFactor);
    appendInt(line, "\tuops=", r.options.unrollMaxOps);
    appendInt(line, "\tverify=", r.options.verify ? 1 : 0);
    appendInt(line, "\tra=", r.options.regalloc ? 1 : 0);
    appendInt(line, "\tcg=", r.options.codegen ? 1 : 0);
    return line;
}

bool
wireRequestFromLine(const std::string &line, WireRequest &out,
                    std::string &error)
{
    const std::vector<std::string> tokens = split(line, '\t');
    if (tokens.empty() || tokens[0] != kMagic) {
        error = "bad magic (want 'dms1')";
        return false;
    }
    if (tokens.size() < 2) {
        error = "missing verb";
        return false;
    }
    WireRequest parsed;
    if (tokens[1] == "metrics") {
        if (tokens.size() != 2) {
            error = "metrics takes no fields";
            return false;
        }
        parsed.verb = WireRequest::Verb::Metrics;
        out = parsed;
        return true;
    }
    if (tokens[1] == "trace") {
        if (tokens.size() != 2) {
            error = "trace takes no fields";
            return false;
        }
        parsed.verb = WireRequest::Verb::Trace;
        out = parsed;
        return true;
    }
    if (tokens[1] != "compile") {
        error = strfmt("unknown verb '%s'", tokens[1].c_str());
        return false;
    }
    parsed.verb = WireRequest::Verb::Compile;
    bool haveLoop = false;
    bool haveMachine = false;
    for (size_t i = 2; i < tokens.size(); ++i) {
        std::string_view key;
        std::string_view value;
        if (!fieldAt(tokens, i, key, value, error))
            return false;
        const auto text = [&](std::string &dst) {
            if (!wireUnescape(value, dst)) {
                error = strfmt("bad escape in '%.*s'",
                               static_cast<int>(key.size()),
                               key.data());
                return false;
            }
            return true;
        };
        const auto num = [&](int lo, int hi, int &dst) {
            long long v = 0;
            if (!parseWireLong(value, v) || v < lo || v > hi) {
                error = strfmt("bad integer for '%.*s'",
                               static_cast<int>(key.size()),
                               key.data());
                return false;
            }
            dst = static_cast<int>(v);
            return true;
        };
        int flag = 0;
        if (key == "loop") {
            if (!text(parsed.request.loopText))
                return false;
            haveLoop = true;
        } else if (key == "machine") {
            if (!text(parsed.request.machineText))
                return false;
            haveMachine = true;
        } else if (key == "sched") {
            if (!text(parsed.request.options.scheduler))
                return false;
        } else if (key == "deadline_ms") {
            if (!num(0, 1 << 30, parsed.request.deadlineMs))
                return false;
        } else if (key == "unroll") {
            if (!num(0, 1 << 20,
                     parsed.request.options.forceUnroll))
                return false;
        } else if (key == "umax") {
            if (!num(1, 1 << 20,
                     parsed.request.options.unrollMaxFactor))
                return false;
        } else if (key == "uops") {
            if (!num(1, 1 << 30,
                     parsed.request.options.unrollMaxOps))
                return false;
        } else if (key == "verify") {
            if (!num(0, 1, flag))
                return false;
            parsed.request.options.verify = flag != 0;
        } else if (key == "ra") {
            if (!num(0, 1, flag))
                return false;
            parsed.request.options.regalloc = flag != 0;
        } else if (key == "cg") {
            if (!num(0, 1, flag))
                return false;
            parsed.request.options.codegen = flag != 0;
        } else {
            error = strfmt("unknown key '%.*s'",
                           static_cast<int>(key.size()),
                           key.data());
            return false;
        }
    }
    if (!haveLoop || !haveMachine) {
        error = "compile needs loop= and machine=";
        return false;
    }
    out = std::move(parsed);
    return true;
}

std::string
wireResultToLine(const CompileResult &result)
{
    std::string line = kMagic;
    line += "\tresult";
    appendField(line, "status",
                compileStatusName(result.status));
    appendInt(line, "\tparsed=", result.parsed ? 1 : 0);
    appendInt(line, "\tok=", result.ok ? 1 : 0);
    appendField(line, "error", result.error);
    appendField(line, "fail_site", result.failSite);
    appendInt(line, "\tii=", result.run.ii);
    appendInt(line, "\tmii=", result.run.mii);
    appendInt(line, "\tstages=", result.run.stageCount);
    appendInt(line, "\tunroll=", result.run.unrollFactor);
    appendInt(line, "\tmoves=", result.run.movesInserted);
    appendInt(line, "\tcopies=", result.run.copiesInserted);
    appendInt(line, "\titer=", result.run.iterations);
    appendInt(line, "\tcycles=", result.run.cycles);
    appendInt(line, "\tuseful=", result.run.usefulIssues);
    appendInt(line, "\tqfiles=", result.run.queueFiles);
    appendInt(line, "\tqreq=", result.run.queuesRequired);
    appendInt(line, "\tqstore=", result.run.queueStorage);
    appendInt(line, "\tqlink=", result.run.maxLinkQueues);
    appendField(line, "kernel", result.kernelText);
    return line;
}

bool
wireResultFromLine(const std::string &line, CompileResult &out,
                   std::string &error)
{
    const std::vector<std::string> tokens = split(line, '\t');
    if (tokens.size() < 2 || tokens[0] != kMagic ||
        tokens[1] != "result") {
        error = "not a result line";
        return false;
    }
    CompileResult parsed;
    bool haveStatus = false;
    int parsedFlag = -1; // -1: field absent
    int okFlag = -1;
    for (size_t i = 2; i < tokens.size(); ++i) {
        std::string_view key;
        std::string_view value;
        if (!fieldAt(tokens, i, key, value, error))
            return false;
        const auto text = [&](std::string &dst) {
            if (!wireUnescape(value, dst)) {
                error = strfmt("bad escape in '%.*s'",
                               static_cast<int>(key.size()),
                               key.data());
                return false;
            }
            return true;
        };
        const auto num = [&](long long lo, long long hi, int &dst) {
            long long v = 0;
            if (!parseWireLong(value, v) || v < lo || v > hi) {
                error = strfmt("bad integer for '%.*s'",
                               static_cast<int>(key.size()),
                               key.data());
                return false;
            }
            dst = static_cast<int>(v);
            return true;
        };
        const auto numInt = [&](int &dst) {
            return num(INT_MIN, INT_MAX, dst);
        };
        const auto numLong = [&](long &dst) {
            long long v = 0;
            if (!parseWireLong(value, v)) {
                error = strfmt("bad integer for '%.*s'",
                               static_cast<int>(key.size()),
                               key.data());
                return false;
            }
            dst = static_cast<long>(v);
            return true;
        };
        if (key == "status") {
            if (!compileStatusFromName(value, parsed.status)) {
                error = strfmt("unknown status '%.*s'",
                               static_cast<int>(value.size()),
                               value.data());
                return false;
            }
            haveStatus = true;
        } else if (key == "parsed") {
            if (!num(0, 1, parsedFlag))
                return false;
        } else if (key == "ok") {
            if (!num(0, 1, okFlag))
                return false;
        } else if (key == "error") {
            if (!text(parsed.error))
                return false;
        } else if (key == "fail_site") {
            if (!text(parsed.failSite))
                return false;
        } else if (key == "ii") {
            if (!numInt(parsed.run.ii))
                return false;
        } else if (key == "mii") {
            if (!numInt(parsed.run.mii))
                return false;
        } else if (key == "stages") {
            if (!numInt(parsed.run.stageCount))
                return false;
        } else if (key == "unroll") {
            if (!numInt(parsed.run.unrollFactor))
                return false;
        } else if (key == "moves") {
            if (!numInt(parsed.run.movesInserted))
                return false;
        } else if (key == "copies") {
            if (!numInt(parsed.run.copiesInserted))
                return false;
        } else if (key == "iter") {
            if (!numLong(parsed.run.iterations))
                return false;
        } else if (key == "cycles") {
            if (!numLong(parsed.run.cycles))
                return false;
        } else if (key == "useful") {
            if (!numLong(parsed.run.usefulIssues))
                return false;
        } else if (key == "qfiles") {
            if (!numInt(parsed.run.queueFiles))
                return false;
        } else if (key == "qreq") {
            if (!numInt(parsed.run.queuesRequired))
                return false;
        } else if (key == "qstore") {
            if (!numInt(parsed.run.queueStorage))
                return false;
        } else if (key == "qlink") {
            if (!numInt(parsed.run.maxLinkQueues))
                return false;
        } else if (key == "kernel") {
            if (!text(parsed.kernelText))
                return false;
        } else {
            error = strfmt("unknown key '%.*s'",
                           static_cast<int>(key.size()),
                           key.data());
            return false;
        }
    }
    if (!haveStatus) {
        error = "result line missing status=";
        return false;
    }
    deriveResultFlags(parsed);
    if ((parsedFlag >= 0 && (parsedFlag == 1) != parsed.parsed) ||
        (okFlag >= 0 && (okFlag == 1) != parsed.ok)) {
        error = strfmt("parsed=/ok= disagree with status=%s",
                       compileStatusName(parsed.status));
        return false;
    }
    out = std::move(parsed);
    return true;
}

std::string
wireMetricsToLine(const std::string &metricsText)
{
    return textResponseToLine("metricsr", metricsText);
}

bool
wireMetricsFromLine(const std::string &line,
                    std::string &metricsText, std::string &error)
{
    return textResponseFromLine(line, "metricsr", "metrics",
                                metricsText, error);
}

std::string
wireTraceToLine(const std::string &traceJson)
{
    return textResponseToLine("tracer", traceJson);
}

bool
wireTraceFromLine(const std::string &line, std::string &traceJson,
                  std::string &error)
{
    return textResponseFromLine(line, "tracer", "trace", traceJson,
                                error);
}

namespace {

/** Write all of @p data to @p fd; false on any error. */
bool
writeAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::send(fd, data.data() + off, data.size() - off,
                   MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

} // namespace

struct NetServer::Impl
{
    Impl(CompileService &s, const NetServerOptions &o)
        : service(s), opts(o)
    {
    }

    CompileService &service;
    NetServerOptions opts;

    int listenFd = -1;
    int boundPort = 0;
    std::atomic<bool> stopping{false};
    std::atomic<bool> stopped{false};
    std::thread acceptThread;

    /**
     * One accepted connection and the thread serving it; the
     * thread holds the Conn's address, so it never moves.
     */
    struct Conn
    {
        Conn() = default;
        Conn(const Conn &) = delete;
        Conn &operator=(const Conn &) = delete;

        int fd = -1;
        bool done = false; ///< its thread is past its last fd use
        std::thread thread;
    };

    std::mutex connMu;
    std::list<Conn> conns; ///< guarded by connMu

    obs::Counter connections;
    obs::Counter requests;
    obs::Counter framingRejects;
    obs::Counter bytesIn;
    obs::Counter bytesOut;

    void
    acceptLoop()
    {
        for (;;) {
            const int fd = ::accept(listenFd, nullptr, nullptr);
            if (fd < 0) {
                if (stopping.load(std::memory_order_acquire))
                    break;
                if (errno == EINTR || errno == ECONNABORTED)
                    continue;
                if (errno == EMFILE || errno == ENFILE ||
                    errno == ENOBUFS || errno == ENOMEM) {
                    // Out of descriptors or memory: the pending
                    // connection stays queued until a closing one
                    // frees a slot, so back off and accept again.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(10));
                    continue;
                }
                break;
            }
            if (stopping.load(std::memory_order_acquire)) {
                ::close(fd);
                break;
            }
            // A fault here models a connection lost at accept
            // time: the client sees an immediate EOF and retries.
            try {
                faultPoint("serve.net.accept");
            } catch (const InjectedFault &) {
                ::close(fd);
                continue;
            }
            connections.inc();
            reapFinished();
            std::lock_guard<std::mutex> lock(connMu);
            Conn &conn = conns.emplace_back();
            conn.fd = fd;
            try {
                conn.thread =
                    std::thread([this, &conn] { connLoop(conn); });
            } catch (const std::system_error &) {
                // No thread to serve it: drop this connection
                // (its client sees EOF) and keep accepting.
                conns.pop_back();
                ::close(fd);
            }
        }
    }

    /**
     * Join the threads of connections that have closed, so a
     * long-running server holds one thread (and stack) per open
     * connection rather than per connection ever accepted.
     */
    void
    reapFinished()
    {
        std::list<Conn> finished;
        {
            std::lock_guard<std::mutex> lock(connMu);
            for (auto it = conns.begin(); it != conns.end();) {
                const auto next = std::next(it);
                if (it->done)
                    finished.splice(finished.end(), conns, it);
                it = next;
            }
        }
        for (Conn &c : finished)
            c.thread.join();
    }

    void
    connLoop(Conn &conn)
    {
        const int fd = conn.fd;
        std::string buf;
        char chunk[4096];
        bool discarding = false;
        for (;;) {
            // A fault here models the connection dying mid-read.
            try {
                faultPoint("serve.net.read");
            } catch (const InjectedFault &) {
                break;
            }
            const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break;
            bytesIn.inc(static_cast<std::uint64_t>(n));
            buf.append(chunk, static_cast<size_t>(n));

            bool dead = false;
            size_t nl;
            while ((nl = buf.find('\n')) != std::string::npos) {
                std::string line = buf.substr(0, nl);
                buf.erase(0, nl + 1);
                if (discarding) {
                    // The tail of an already-rejected oversized
                    // line; the connection resyncs here.
                    discarding = false;
                    continue;
                }
                if (!line.empty() && line.back() == '\r')
                    line.pop_back();
                requests.inc();
                if (!respond(fd, handleLine(line))) {
                    dead = true;
                    break;
                }
            }
            if (dead)
                break;
            if (!discarding &&
                buf.size() >
                    static_cast<size_t>(opts.maxLineBytes)) {
                // Oversized line: reject what we have, then skip
                // to the next newline so the connection survives.
                requests.inc();
                if (!respond(fd, framingReject(strfmt(
                                 "line exceeds %d bytes",
                                 opts.maxLineBytes))))
                    break;
                buf.clear();
                discarding = true;
            }
        }
        {
            std::lock_guard<std::mutex> lock(connMu);
            conn.done = true;
        }
        ::close(fd);
    }

    bool
    respond(int fd, const std::string &line)
    {
        // A fault here models the connection dying mid-write.
        try {
            faultPoint("serve.net.write");
        } catch (const InjectedFault &) {
            return false;
        }
        std::string out = line;
        out += '\n';
        if (!writeAll(fd, out))
            return false;
        bytesOut.inc(out.size());
        return true;
    }

    /**
     * A line that failed framing. The reject is routed through the
     * service as an unparseable request so it lands in the
     * serve.invalid counter — the identity dmslint audits
     * (net.framing_rejects <= serve.invalid). Under fault
     * injection the accounting submit itself can resolve
     * Failed/Expired instead; then the client gets that
     * structured (retryable) result and the reject is *not*
     * counted, keeping the identity exact.
     */
    std::string
    framingReject(std::string why)
    {
        CompileRequest junk;
        junk.machineText = "<wire framing reject>";
        CompileService::ResultPtr accounted =
            service.submit(junk).future.get();
        if (accounted->status != CompileStatus::Invalid)
            return wireResultToLine(*accounted);
        framingRejects.inc();
        CompileResult result;
        result.status = CompileStatus::Invalid;
        result.error = "framing: " + std::move(why);
        deriveResultFlags(result);
        return wireResultToLine(result);
    }

    std::string
    handleLine(const std::string &line)
    {
        WireRequest wire;
        std::string err;
        if (!wireRequestFromLine(line, wire, err))
            return framingReject(std::move(err));

        if (wire.verb == WireRequest::Verb::Metrics)
            return wireMetricsToLine(
                obs::metricsToText(metricsSnapshot()));

        if (wire.verb == WireRequest::Verb::Trace)
            return wireTraceToLine(obs::tracesToJson(
                obs::TraceLog::instance().traces()));

        // The network request rides the in-process machinery:
        // shedding keeps the bounded queue the backpressure point
        // (overload answers Rejected), and compile() owns the
        // deadline wait and the serve.latency_ms record, so the
        // metrics verb reports wire latencies too.
        return wireResultToLine(
            *service.compile(wire.request, opts.submitWaitMs));
    }

    obs::MetricsSnapshot
    metricsSnapshot() const
    {
        obs::MetricsSnapshot snap = service.metrics();
        snap.addCounter("net.connections", connections.value());
        snap.addCounter("net.requests", requests.value());
        snap.addCounter("net.framing_rejects", framingRejects.value());
        snap.addCounter("net.bytes_in", bytesIn.value());
        snap.addCounter("net.bytes_out", bytesOut.value());
        snap.sortByName();
        return snap;
    }
};

NetServer::NetServer(CompileService &service, NetServerOptions opts)
    : impl_(new Impl(service, opts))
{
}

NetServer::~NetServer() { stop(); }

bool
NetServer::start(std::string &error)
{
    Impl &im = *impl_;
    im.listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (im.listenFd < 0) {
        error = strfmt("socket: %s", std::strerror(errno));
        return false;
    }
    int one = 1;
    ::setsockopt(im.listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port =
        htons(static_cast<std::uint16_t>(im.opts.port));
    if (::bind(im.listenFd,
               reinterpret_cast<const sockaddr *>(&addr),
               sizeof addr) != 0) {
        error = strfmt("bind port %d: %s", im.opts.port,
                       std::strerror(errno));
        ::close(im.listenFd);
        im.listenFd = -1;
        return false;
    }
    if (::listen(im.listenFd, 64) != 0) {
        error = strfmt("listen: %s", std::strerror(errno));
        ::close(im.listenFd);
        im.listenFd = -1;
        return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(im.listenFd,
                      reinterpret_cast<sockaddr *>(&bound),
                      &len) == 0)
        im.boundPort = ntohs(bound.sin_port);
    im.acceptThread = std::thread([&im] { im.acceptLoop(); });
    return true;
}

void
NetServer::stop()
{
    Impl &im = *impl_;
    if (im.stopped.exchange(true))
        return;
    im.stopping.store(true, std::memory_order_release);
    if (im.listenFd >= 0)
        ::shutdown(im.listenFd, SHUT_RDWR);
    if (im.acceptThread.joinable())
        im.acceptThread.join();
    if (im.listenFd >= 0) {
        ::close(im.listenFd);
        im.listenFd = -1;
    }
    // Wake every blocked recv; each connection thread marks itself
    // done (under connMu) before closing its fd, so the fds shut
    // down here are never stale.
    std::list<Impl::Conn> conns;
    {
        std::lock_guard<std::mutex> lock(im.connMu);
        for (const Impl::Conn &c : im.conns)
            if (!c.done)
                ::shutdown(c.fd, SHUT_RDWR);
        conns.swap(im.conns);
    }
    for (Impl::Conn &c : conns)
        c.thread.join();
}

int
NetServer::port() const
{
    return impl_->boundPort;
}

obs::MetricsSnapshot
NetServer::metrics() const
{
    return impl_->metricsSnapshot();
}

NetClient::NetClient() = default;

NetClient::~NetClient() { close(); }

bool
NetClient::connect(const std::string &host, int port,
                   int timeoutMs, std::string &error)
{
    close();
    const char *ip =
        host == "localhost" ? "127.0.0.1" : host.c_str();
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, ip, &addr.sin_addr) != 1) {
        error = strfmt("bad IPv4 address '%s'", host.c_str());
        return false;
    }
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(std::max(timeoutMs, 0));
    for (;;) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd >= 0 &&
            ::connect(fd,
                      reinterpret_cast<const sockaddr *>(&addr),
                      sizeof addr) == 0) {
            fd_ = fd;
            rbuf_.clear();
            return true;
        }
        if (fd >= 0)
            ::close(fd);
        // Retry until the deadline: covers a daemon that is still
        // binding its port when the client starts.
        if (std::chrono::steady_clock::now() >= deadline) {
            error = strfmt("connect %s:%d: %s", host.c_str(),
                           port, std::strerror(errno));
            return false;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(50));
    }
}

void
NetClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    rbuf_.clear();
}

bool
NetClient::connected() const
{
    return fd_ >= 0;
}

bool
NetClient::roundTrip(const std::string &line,
                     std::string &response, std::string &error)
{
    if (fd_ < 0) {
        error = "not connected";
        return false;
    }
    std::string out = line;
    out += '\n';
    if (!writeAll(fd_, out)) {
        error = strfmt("send: %s", std::strerror(errno));
        close();
        return false;
    }
    size_t nl;
    while ((nl = rbuf_.find('\n')) == std::string::npos) {
        char chunk[4096];
        const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            error = n == 0 ? "connection closed mid-response"
                           : strfmt("recv: %s",
                                    std::strerror(errno));
            close();
            return false;
        }
        rbuf_.append(chunk, static_cast<size_t>(n));
    }
    response = rbuf_.substr(0, nl);
    rbuf_.erase(0, nl + 1);
    if (!response.empty() && response.back() == '\r')
        response.pop_back();
    return true;
}

bool
NetClient::compile(const CompileRequest &request,
                   CompileResult &out, std::string &error)
{
    WireRequest wire;
    wire.verb = WireRequest::Verb::Compile;
    wire.request = request;
    std::string response;
    if (!roundTrip(wireRequestToLine(wire), response, error))
        return false;
    if (!wireResultFromLine(response, out, error)) {
        // A garbled response is a transport failure: the stream
        // can no longer be trusted to be in frame.
        close();
        return false;
    }
    return true;
}

bool
NetClient::fetchMetrics(std::string &text, std::string &error)
{
    WireRequest wire;
    wire.verb = WireRequest::Verb::Metrics;
    std::string response;
    if (!roundTrip(wireRequestToLine(wire), response, error))
        return false;
    if (!wireMetricsFromLine(response, text, error)) {
        close();
        return false;
    }
    return true;
}

bool
NetClient::fetchTrace(std::string &text, std::string &error)
{
    WireRequest wire;
    wire.verb = WireRequest::Verb::Trace;
    std::string response;
    if (!roundTrip(wireRequestToLine(wire), response, error))
        return false;
    if (!wireTraceFromLine(response, text, error)) {
        close();
        return false;
    }
    return true;
}

} // namespace dms
