/**
 * @file
 * Network front-end tests: wire escape/framing round trips,
 * repeated keys and result flags that contradict the status
 * rejected, a deterministic framing-fuzz pass over corrupted
 * request lines (parse or structured reject — never a crash),
 * live-server abuse (garbage lines, oversized lines, mid-request
 * disconnects, a connection flood, descriptor exhaustion) that
 * must leave the daemon serving, the socket-parity pin: a TCP
 * round trip returns results bit-identical to the in-process
 * CompileService, including a cache-hit round trip, and the load
 * generator's two transports agreeing on one mix.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analyze.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#include "core/dms.h"
#include "machine/desc.h"
#include "requests.h"
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

/** Counter @p name of @p snap; a missing counter fails the test. */
std::uint64_t
counter(const obs::MetricsSnapshot &snap, const char *name)
{
    const auto *c = snap.findCounter(name);
    EXPECT_NE(c, nullptr) << name;
    return c != nullptr ? c->value : 0;
}

/** Canonical compile request for one named kernel on the ring. */
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

/** Every field of the two results, compared bit-for-bit. */
void
expectResultsIdentical(const CompileResult &a,
                       const CompileResult &b)
{
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.parsed, b.parsed);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.failSite, b.failSite);
    EXPECT_TRUE(a.run == b.run);
    EXPECT_EQ(a.kernelText, b.kernelText);
}

/** Raw loopback TCP connection, bypassing NetClient's framing. */
int
rawConnect(int port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
rawSend(int fd, const std::string &bytes)
{
    size_t off = 0;
    while (off < bytes.size()) {
        ssize_t n = ::send(fd, bytes.data() + off,
                           bytes.size() - off, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        off += static_cast<size_t>(n);
    }
    return true;
}

/** Read one '\n'-terminated line (newline stripped). */
bool
rawReadLine(int fd, std::string &line)
{
    line.clear();
    char c = 0;
    while (true) {
        ssize_t n = ::recv(fd, &c, 1, 0);
        if (n <= 0)
            return false;
        if (c == '\n')
            return true;
        line.push_back(c);
    }
}

// --- framing ------------------------------------------------------------

TEST(Wire, EscapeRoundTripsEveryReservedByte)
{
    const std::string nasty("a\\b\tc\nd\re\\\\\t\t\n\n", 16);
    const std::string esc = wireEscape(nasty);
    EXPECT_EQ(esc.find('\t'), std::string::npos);
    EXPECT_EQ(esc.find('\n'), std::string::npos);
    EXPECT_EQ(esc.find('\r'), std::string::npos);
    std::string back;
    ASSERT_TRUE(wireUnescape(esc, back));
    EXPECT_EQ(back, nasty);

    // Random byte soup round-trips too.
    Rng rng(0x5eedULL);
    for (int iter = 0; iter < 200; ++iter) {
        std::string s;
        const int len = rng.range(0, 64);
        for (int i = 0; i < len; ++i)
            s.push_back(static_cast<char>(rng.range(0, 255)));
        std::string out;
        ASSERT_TRUE(wireUnescape(wireEscape(s), out));
        EXPECT_EQ(out, s);
    }
}

TEST(Wire, UnescapeRejectsBadEscapes)
{
    std::string out;
    EXPECT_FALSE(wireUnescape("dangling\\", out));
    EXPECT_FALSE(wireUnescape("unknown\\q", out));
    EXPECT_TRUE(wireUnescape("fine\\\\\\t\\n\\r", out));
    EXPECT_EQ(out, "fine\\\t\n\r");
}

TEST(Wire, RequestLineRoundTripsEveryField)
{
    WireRequest req;
    req.verb = WireRequest::Verb::Compile;
    req.request = kernelRequest("fir8");
    req.request.deadlineMs = 750;
    req.request.options.forceUnroll = 2;
    req.request.options.unrollMaxFactor = 4;
    req.request.options.unrollMaxOps = 256;
    req.request.options.verify = false;

    const std::string line = wireRequestToLine(req);
    EXPECT_EQ(line.find('\n'), std::string::npos);

    WireRequest back;
    std::string error;
    ASSERT_TRUE(wireRequestFromLine(line, back, error)) << error;
    EXPECT_EQ(back.verb, WireRequest::Verb::Compile);
    EXPECT_EQ(back.request.loopText, req.request.loopText);
    EXPECT_EQ(back.request.machineText, req.request.machineText);
    EXPECT_EQ(back.request.options.scheduler,
              req.request.options.scheduler);
    EXPECT_EQ(back.request.deadlineMs, 750);
    EXPECT_EQ(back.request.options.forceUnroll, 2);
    EXPECT_EQ(back.request.options.unrollMaxFactor, 4);
    EXPECT_EQ(back.request.options.unrollMaxOps, 256);
    EXPECT_FALSE(back.request.options.verify);
    EXPECT_TRUE(back.request.options.regalloc);
    EXPECT_TRUE(back.request.options.codegen);

    WireRequest metrics;
    metrics.verb = WireRequest::Verb::Metrics;
    WireRequest metricsBack;
    ASSERT_TRUE(wireRequestFromLine(wireRequestToLine(metrics),
                                    metricsBack, error))
        << error;
    EXPECT_EQ(metricsBack.verb, WireRequest::Verb::Metrics);
}

TEST(Wire, ResultLineRoundTripsEveryField)
{
    CompileResult r;
    r.status = CompileStatus::Ok;
    r.parsed = true;
    r.ok = true;
    r.error = "line 3:\tnot really\n";
    r.failSite = "serve.cache.lookup";
    r.run.ok = true;
    r.run.ii = 7;
    r.run.mii = 6;
    r.run.stageCount = 3;
    r.run.unrollFactor = 2;
    r.run.movesInserted = 11;
    r.run.copiesInserted = 4;
    r.run.iterations = 64;
    r.run.cycles = 513;
    r.run.usefulIssues = 1024;
    r.run.queueFiles = 5;
    r.run.queuesRequired = 17;
    r.run.queueStorage = 40;
    r.run.maxLinkQueues = 3;
    r.kernelText = "stage 0:\n  alu0.add r1, r2\n";

    CompileResult back;
    std::string error;
    ASSERT_TRUE(
        wireResultFromLine(wireResultToLine(r), back, error))
        << error;
    expectResultsIdentical(r, back);
}

TEST(Wire, ResultLineRejectsOutOfRangeIntegers)
{
    CompileResult r;
    r.status = CompileStatus::Ok;
    r.parsed = true;
    r.ok = true;
    r.run.ii = 7;
    const std::string line = wireResultToLine(r);
    // @p line with the one field @p from spelled @p to.
    const auto with = [&](const std::string &from,
                          const std::string &to) {
        std::string out = line;
        const size_t at = out.find("\t" + from + "\t");
        EXPECT_NE(at, std::string::npos) << from;
        return out.replace(at + 1, from.size(), to);
    };

    CompileResult back;
    std::string error;
    // 2^31 is one past INT_MAX: rejected, not wrapped to INT_MIN.
    EXPECT_FALSE(
        wireResultFromLine(with("ii=7", "ii=2147483648"), back, error));
    EXPECT_EQ(error, "bad integer for 'ii'");
    EXPECT_FALSE(wireResultFromLine(with("ii=7", "ii=-2147483649"),
                                    back, error));
    ASSERT_TRUE(
        wireResultFromLine(with("ii=7", "ii=2147483647"), back, error))
        << error;
    EXPECT_EQ(back.run.ii, 2147483647);
    ASSERT_TRUE(wireResultFromLine(with("ii=7", "ii=-2147483648"),
                                   back, error))
        << error;
    EXPECT_EQ(back.run.ii, -2147483647 - 1);

    // The flags take 0 or 1, like the request side's.
    EXPECT_FALSE(
        wireResultFromLine(with("parsed=1", "parsed=2"), back, error));
    EXPECT_EQ(error, "bad integer for 'parsed'");
    EXPECT_FALSE(wireResultFromLine(with("ok=1", "ok=-1"), back, error));
    EXPECT_EQ(error, "bad integer for 'ok'");
    // ok=0 is in range, but contradicts status=ok
    // (Wire.ResultFlagsMustAgreeWithStatus).
    EXPECT_FALSE(wireResultFromLine(with("ok=1", "ok=0"), back, error));
    EXPECT_EQ(error, "parsed=/ok= disagree with status=ok");
}

TEST(Wire, ResultFlagsMustAgreeWithStatus)
{
    CompileResult back;
    std::string error;
    EXPECT_FALSE(wireResultFromLine(
        "dms1\tresult\tstatus=invalid\tparsed=1\tok=1", back, error));
    EXPECT_EQ(error, "parsed=/ok= disagree with status=invalid");

    // The reader derives parsed, ok and run.ok from status, with
    // the flags given or not, and rejects either flag flipped.
    for (size_t st = 0; st < kCompileStatusCount; ++st) {
        const auto status = static_cast<CompileStatus>(st);
        SCOPED_TRACE(compileStatusName(status));
        const int parsed = status != CompileStatus::Invalid ? 1 : 0;
        const int ok = status == CompileStatus::Ok ? 1 : 0;
        const std::string head =
            std::string("dms1\tresult\tstatus=") +
            compileStatusName(status);
        const auto flags = [&](int p, int o) {
            return head + strfmt("\tparsed=%d\tok=%d", p, o);
        };
        for (const std::string &line : {head, flags(parsed, ok)}) {
            back = CompileResult();
            ASSERT_TRUE(wireResultFromLine(line, back, error))
                << error;
            EXPECT_EQ(back.status, status);
            EXPECT_EQ(back.parsed, parsed == 1);
            EXPECT_EQ(back.ok, ok == 1);
            EXPECT_EQ(back.run.ok, ok == 1);
        }
        const std::string want =
            std::string("parsed=/ok= disagree with status=") +
            compileStatusName(status);
        EXPECT_FALSE(
            wireResultFromLine(flags(1 - parsed, ok), back, error));
        EXPECT_EQ(error, want);
        EXPECT_FALSE(
            wireResultFromLine(flags(parsed, 1 - ok), back, error));
        EXPECT_EQ(error, want);
    }
}

TEST(Wire, RequestLineRejectsRepeatedKeys)
{
    WireRequest out;
    std::string error;
    EXPECT_FALSE(wireRequestFromLine(
        "dms1\tcompile\tloop=A\tmachine=M\tloop=B", out, error));
    EXPECT_EQ(error, "duplicate key 'loop'");

    // Every field of a real request line, given a second time.
    WireRequest req;
    req.request = kernelRequest("fir8", false);
    const std::string line = wireRequestToLine(req);
    ASSERT_TRUE(wireRequestFromLine(line, out, error)) << error;
    const std::vector<std::string> fields = split(line, '\t');
    ASSERT_EQ(fields.size(), 12u);
    for (size_t i = 2; i < fields.size(); ++i) {
        const std::string key = fields[i].substr(0, fields[i].find('='));
        EXPECT_FALSE(
            wireRequestFromLine(line + "\t" + fields[i], out, error))
            << key;
        EXPECT_EQ(error, "duplicate key '" + key + "'");
    }
}

TEST(Wire, ResultLineRejectsRepeatedKeys)
{
    CompileResult back;
    std::string error;
    EXPECT_FALSE(wireResultFromLine(
        "dms1\tresult\tstatus=ok\tstatus=failed", back, error));
    EXPECT_EQ(error, "duplicate key 'status'");

    // Every field of a real result line, given a second time.
    CompileResult r;
    r.status = CompileStatus::Ok;
    r.parsed = true;
    r.ok = true;
    r.run.ii = 7;
    const std::string line = wireResultToLine(r);
    ASSERT_TRUE(wireResultFromLine(line, back, error)) << error;
    const std::vector<std::string> fields = split(line, '\t');
    ASSERT_EQ(fields.size(), 21u);
    for (size_t i = 2; i < fields.size(); ++i) {
        const std::string key = fields[i].substr(0, fields[i].find('='));
        EXPECT_FALSE(
            wireResultFromLine(line + "\t" + fields[i], back, error))
            << key;
        EXPECT_EQ(error, "duplicate key '" + key + "'");
    }
}

TEST(Wire, FramingFuzzNeverCrashesTheParser)
{
    // Deterministic corruption of a real request line: byte flips,
    // insertions, deletions and truncations. Every mutant must
    // either parse or produce a framing error — never crash, never
    // return success with an empty loop/machine.
    WireRequest req;
    req.request = kernelRequest("fir8", false);
    const std::string pristine = wireRequestToLine(req);

    Rng rng(0xfeedfaceULL);
    for (int iter = 0; iter < 3000; ++iter) {
        std::string line = pristine;
        const int edits = rng.range(1, 8);
        for (int e = 0; e < edits && !line.empty(); ++e) {
            const size_t pos = static_cast<size_t>(rng.range(
                0, static_cast<int>(line.size()) - 1));
            switch (rng.range(0, 3)) {
            case 0:
                line[pos] = static_cast<char>(rng.range(0, 255));
                break;
            case 1:
                line.insert(pos, 1,
                            static_cast<char>(rng.range(0, 255)));
                break;
            case 2:
                line.erase(pos, 1);
                break;
            default:
                line.resize(pos);
                break;
            }
        }
        // Mutants that still parse (e.g. a value flipped inside
        // the escaped loop text) are the service's problem — it
        // answers Invalid. The parser's contract here is only:
        // a verdict, an error message on reject, no crash.
        WireRequest out;
        std::string error;
        if (!wireRequestFromLine(line, out, error)) {
            EXPECT_FALSE(error.empty());
        }
    }
}

// --- live server abuse --------------------------------------------------

TEST(NetServer, GarbageAndDisconnectsLeaveTheServerServing)
{
    ServeOptions so;
    so.workers = 2;
    CompileService service(so);
    NetServer server(service);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    // Garbage lines get a structured Invalid response on the same
    // connection — parse-or-reject, never a dropped socket. A
    // `stats` line is just another unknown verb.
    int fd = rawConnect(server.port());
    ASSERT_GE(fd, 0);
    for (const char *junk :
         {"not a protocol line", "dms1\tstats",
          "dms1\tcompile\tloop=\\q", "dms1\tfrobnicate",
          "dms1\tcompile\tmystery=1"}) {
        ASSERT_TRUE(rawSend(fd, std::string(junk) + "\n"));
        std::string respLine;
        ASSERT_TRUE(rawReadLine(fd, respLine)) << junk;
        CompileResult resp;
        ASSERT_TRUE(wireResultFromLine(respLine, resp, error))
            << error;
        EXPECT_EQ(resp.status, CompileStatus::Invalid) << junk;
        EXPECT_FALSE(resp.error.empty());
    }
    // A mid-request disconnect (partial line, no newline) is
    // dropped without a response and without hurting the server.
    ASSERT_TRUE(rawSend(fd, "dms1\tcompile\tloop="));
    ::close(fd);

    // The server still compiles for the next client.
    NetClient client;
    ASSERT_TRUE(
        client.connect("127.0.0.1", server.port(), 5000, error))
        << error;
    CompileResult result;
    ASSERT_TRUE(
        client.compile(kernelRequest("fir8", false), result, error))
        << error;
    EXPECT_EQ(result.status, CompileStatus::Ok);

    const obs::MetricsSnapshot snap = server.metrics();
    const std::uint64_t rejects =
        counter(snap, "net.framing_rejects");
    const std::uint64_t lines = counter(snap, "net.requests");
    EXPECT_GE(rejects, 5u);
    EXPECT_LE(rejects, counter(snap, "serve.invalid"));
    EXPECT_LE(rejects, lines);
    EXPECT_GE(counter(snap, "net.bytes_in"), lines);
    server.stop();
}

TEST(NetServer, OversizedLineIsRejectedAndTheConnectionSurvives)
{
    ServeOptions so;
    so.workers = 2;
    CompileService service(so);
    NetServerOptions no;
    no.maxLineBytes = 4096;
    NetServer server(service, no);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    int fd = rawConnect(server.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(
        rawSend(fd, std::string(10000, 'x') + "\n"));
    std::string respLine;
    ASSERT_TRUE(rawReadLine(fd, respLine));
    CompileResult resp;
    ASSERT_TRUE(wireResultFromLine(respLine, resp, error)) << error;
    EXPECT_EQ(resp.status, CompileStatus::Invalid);

    // Same connection, next line: a well-formed compile succeeds.
    WireRequest req;
    req.request = kernelRequest("fir8", false);
    ASSERT_TRUE(rawSend(fd, wireRequestToLine(req) + "\n"));
    ASSERT_TRUE(rawReadLine(fd, respLine));
    ASSERT_TRUE(wireResultFromLine(respLine, resp, error)) << error;
    EXPECT_EQ(resp.status, CompileStatus::Ok);
    ::close(fd);
    server.stop();
}

/** Lines of /proc/self/maps: one per mapping, thread stacks too. */
size_t
mappingCount()
{
    std::ifstream maps("/proc/self/maps");
    size_t lines = 0;
    for (std::string line; std::getline(maps, line);)
        ++lines;
    return lines;
}

TEST(NetServer, FinishedConnectionThreadsAreJoined)
{
    // Each connection gets a thread; one that is never joined
    // keeps its stack mapped, so a connection flood used to grow
    // the process by one stack per connection until thread
    // creation failed and took the daemon down.
    ServeOptions so;
    so.workers = 1;
    CompileService service(so);
    NetServer server(service);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    // One cycle: connect, one metrics round trip, close.
    const auto cycles = [&](int n) {
        for (int cycle = 0; cycle < n; ++cycle) {
            NetClient client;
            std::string text;
            if (!client.connect("127.0.0.1", server.port(), 5000,
                                error) ||
                !client.fetchMetrics(text, error))
                return false;
        }
        return true;
    };
    // The warm-up lets a sanitizer runtime reach its steady state
    // of per-thread bookkeeping before the count is taken.
    ASSERT_TRUE(cycles(100)) << error;
    const size_t before = mappingCount();
    ASSERT_TRUE(cycles(300)) << error;
    const size_t after = mappingCount();
    EXPECT_LT(after, before + 50) << before << " -> " << after;
    EXPECT_EQ(counter(server.metrics(), "net.connections"), 400u);
    server.stop();
}

TEST(NetServer, AcceptSurvivesDescriptorExhaustion)
{
    ServeOptions so;
    so.workers = 1;
    CompileService service(so);
    NetServer server(service);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;

    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
    // Restores the limit and closes every descriptor the burst
    // holds, on every exit path.
    struct Burst
    {
        explicit Burst(const rlimit &limit) : saved(limit) {}
        Burst(const Burst &) = delete;
        Burst &operator=(const Burst &) = delete;
        ~Burst()
        {
            for (int fd : fds)
                ::close(fd);
            ::setrlimit(RLIMIT_NOFILE, &saved);
        }

        rlimit saved;
        std::vector<int> fds;
    } burst(saved);
    rlimit low = saved;
    low.rlim_cur = std::min<rlim_t>(saved.rlim_cur, 64);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);

    // Take every free descriptor, then give one back to a client
    // that connects: the kernel completes its handshake, but the
    // server has no descriptor left to accept it with (EMFILE).
    for (int fd = ::socket(AF_INET, SOCK_STREAM, 0); fd >= 0;
         fd = ::socket(AF_INET, SOCK_STREAM, 0))
        burst.fds.push_back(fd);
    ASSERT_FALSE(burst.fds.empty());
    ::close(burst.fds.back());
    burst.fds.pop_back();
    const int pending = rawConnect(server.port());
    ASSERT_GE(pending, 0);
    burst.fds.push_back(pending);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    for (int fd : burst.fds)
        ::close(fd);
    burst.fds.clear();
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

    // Descriptors are back: a new connection is accepted and its
    // request answered. The receive timeout turns a server that
    // stopped accepting into a failure rather than a hang.
    const int fd = rawConnect(server.port());
    ASSERT_GE(fd, 0);
    burst.fds.push_back(fd);
    timeval timeout{};
    timeout.tv_sec = 3;
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                           sizeof timeout),
              0);
    WireRequest metrics;
    metrics.verb = WireRequest::Verb::Metrics;
    ASSERT_TRUE(rawSend(fd, wireRequestToLine(metrics) + "\n"));
    std::string line;
    ASSERT_TRUE(rawReadLine(fd, line)) << "no answer after EMFILE";
    std::string text;
    EXPECT_TRUE(wireMetricsFromLine(line, text, error)) << error;
    server.stop();
}

// --- socket parity (acceptance pin) -------------------------------------

TEST(NetServer, TcpRoundTripIsBitIdenticalToInProcessService)
{
    const CompileRequest req = kernelRequest("fir8");

    // Ground truth: the in-process service, no sockets anywhere.
    ServeOptions so;
    so.workers = 2;
    CompileService direct(so);
    CompileService::ResultPtr truth = direct.compile(req);
    ASSERT_TRUE(truth->parsed);
    ASSERT_TRUE(truth->ok);
    ASSERT_FALSE(truth->kernelText.empty());

    // The same request over TCP against a fresh service.
    CompileService service(so);
    NetServer server(service);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    NetClient client;
    ASSERT_TRUE(
        client.connect("127.0.0.1", server.port(), 5000, error))
        << error;

    CompileResult cold;
    ASSERT_TRUE(client.compile(req, cold, error)) << error;
    expectResultsIdentical(*truth, cold);

    // And the cache-hit round trip: same wire request again must
    // be a hit server-side and byte-identical client-side.
    CompileResult warm;
    ASSERT_TRUE(client.compile(req, warm, error)) << error;
    expectResultsIdentical(*truth, warm);

    const obs::MetricsSnapshot snap = server.metrics();
    EXPECT_GE(counter(snap, "serve.hits"), 1u);
    EXPECT_EQ(counter(snap, "net.requests"), 2u);
    EXPECT_EQ(counter(snap, "net.connections"), 1u);
    EXPECT_EQ(counter(snap, "net.framing_rejects"), 0u);
    server.stop();
}

TEST(NetServer, MetricsVerbRoundTripsAndLintsClean)
{
    ServeOptions so;
    so.workers = 2;
    CompileService service(so);
    NetServer server(service);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    NetClient client;
    ASSERT_TRUE(
        client.connect("127.0.0.1", server.port(), 5000, error))
        << error;

    const CompileRequest req = kernelRequest("fir8");
    CompileResult cold, warm;
    ASSERT_TRUE(client.compile(req, cold, error)) << error;
    ASSERT_TRUE(client.compile(req, warm, error)) << error;

    // The wire snapshot parses back through metricsFromText and
    // is canonical: re-emitting it is byte-identical.
    std::string text;
    ASSERT_TRUE(client.fetchMetrics(text, error)) << error;
    obs::MetricsSnapshot snap;
    ASSERT_TRUE(obs::metricsFromText(text, snap, error)) << error;
    EXPECT_EQ(obs::metricsToText(snap), text);

    const auto *requests = snap.findCounter("serve.requests");
    ASSERT_NE(requests, nullptr);
    EXPECT_EQ(requests->value, 2u);
    const auto *hits = snap.findCounter("serve.hits");
    ASSERT_NE(hits, nullptr);
    EXPECT_EQ(hits->value, 1u);
    const auto *conns = snap.findCounter("net.connections");
    ASSERT_NE(conns, nullptr);
    EXPECT_GE(conns->value, 1u);
    const auto *latency = snap.findHistogram("serve.latency_ms");
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->hist.count, 2u);

    // And it satisfies its own lint.
    DiagnosticSink sink;
    lintMetricsText(text, "wire.metrics", sink);
    EXPECT_TRUE(sink.empty()) << sink.renderText();

    // The trace verb answers too (empty export: tracing is not
    // armed here), and the export parses.
    std::string traceJson;
    ASSERT_TRUE(client.fetchTrace(traceJson, error)) << error;
    std::vector<std::vector<obs::TraceSpan>> traces;
    ASSERT_TRUE(obs::tracesFromJson(traceJson, traces, error))
        << error;
    server.stop();
}

TEST(NetServer, ConcurrentMetricsPollingUnderLoad)
{
    // Snapshots are plain atomic reads, so clients hammering the
    // metrics verb while compile load runs must see consistent
    // text (this test is the TSan witness for the hot path).
    ServeOptions so;
    so.workers = 2;
    CompileService service(so);
    NetServer server(service);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    const int port = server.port();

    const char *kernels[] = {"fir8", "iir2", "dot_product"};
    std::atomic<bool> done{false};
    std::atomic<int> compileFailures{0};
    std::atomic<int> pollFailures{0};

    std::vector<std::thread> compilers;
    for (int c = 0; c < 3; ++c) {
        compilers.emplace_back([&, c] {
            NetClient nc;
            std::string err;
            if (!nc.connect("127.0.0.1", port, 5000, err)) {
                compileFailures.fetch_add(1);
                return;
            }
            for (int i = 0; i < 15; ++i) {
                CompileResult out;
                if (!nc.compile(kernelRequest(kernels[(c + i) % 3]),
                                out, err) ||
                    !out.ok)
                    compileFailures.fetch_add(1);
            }
        });
    }
    std::vector<std::thread> pollers;
    for (int p = 0; p < 2; ++p) {
        pollers.emplace_back([&] {
            NetClient nc;
            std::string err;
            if (!nc.connect("127.0.0.1", port, 5000, err)) {
                pollFailures.fetch_add(1);
                return;
            }
            while (!done.load(std::memory_order_relaxed)) {
                std::string text;
                obs::MetricsSnapshot snap;
                if (!nc.fetchMetrics(text, err) ||
                    !obs::metricsFromText(text, snap, err)) {
                    pollFailures.fetch_add(1);
                    break;
                }
            }
        });
    }
    for (std::thread &t : compilers)
        t.join();
    done.store(true);
    for (std::thread &t : pollers)
        t.join();

    EXPECT_EQ(compileFailures.load(), 0);
    EXPECT_EQ(pollFailures.load(), 0);

    // The final snapshot both parses and satisfies the counter
    // identities the lint audits.
    const obs::MetricsSnapshot snap = server.metrics();
    DiagnosticSink sink;
    lintMetricsText(obs::metricsToText(snap), "hammer.metrics",
                    sink);
    EXPECT_TRUE(sink.empty()) << sink.renderText();
    EXPECT_EQ(counter(snap, "serve.requests"), 45u);
    const auto *latency = snap.findHistogram("serve.latency_ms");
    ASSERT_NE(latency, nullptr);
    EXPECT_EQ(latency->hist.count, 45u);
    server.stop();
}

// --- load generator transports -----------------------------------------

TEST(Net, HammerNetworkMatchesHammerService)
{
    // One seed and one mix (hot kernels with every fourth request
    // a unique cold loop; the text depends only on the request
    // number) through both transports of the load generator.
    const std::string machineText =
        machineToText(MachineModel::clusteredRing(4));
    const std::vector<std::string> hot = hotKernelTexts();
    constexpr std::uint64_t kSeed = 0x4e7ULL;
    constexpr int kTotal = 48;
    const auto mix = [&](int i, Rng &) -> std::string {
        if (i % 4 == 3)
            return coldLoopText(kSeed, i);
        return hot[static_cast<size_t>(i) % hot.size()];
    };
    const auto terminal = [](const HammerResult &r) {
        int sum = 0;
        for (int count : r.byStatus)
            sum += count;
        return sum;
    };

    ServeOptions so;
    so.workers = 2;
    HammerResult direct;
    {
        CompileService service(so);
        direct = hammerService(service, kTotal, 2, machineText, "dms",
                               kSeed, mix);
    }
    HammerResult wire;
    {
        CompileService service(so);
        NetServer server(service);
        std::string error;
        ASSERT_TRUE(server.start(error)) << error;
        wire = hammerNetwork("127.0.0.1", server.port(), kTotal, 2,
                             machineText, "dms", kSeed, mix);
        server.stop();
    }
    EXPECT_EQ(direct.requests, kTotal);
    EXPECT_EQ(wire.requests, kTotal);
    EXPECT_EQ(terminal(direct), kTotal);
    EXPECT_EQ(terminal(wire), kTotal);
    for (size_t s = 0; s < kCompileStatusCount; ++s)
        EXPECT_EQ(wire.byStatus[s], direct.byStatus[s])
            << compileStatusName(static_cast<CompileStatus>(s));
    EXPECT_EQ(wire.failures, direct.failures);
    EXPECT_GT(wire.count(CompileStatus::Ok), 0);
    EXPECT_EQ(direct.retries, 0);
    EXPECT_EQ(wire.retries, 0);

    // Connections dropped mid-read: each is a transport failure the
    // client retries on a fresh connection, and every request
    // still resolves to one terminal status. The plan is armed
    // before the server starts and disarmed after it has stopped.
    FaultPlan plan;
    std::string error;
    ASSERT_TRUE(plan.parse("serve.net.read:0.2:7", error)) << error;
    RetryPolicy policy;
    policy.maxAttempts = 3;
    policy.backoffBaseMs = 1;
    policy.backoffMaxMs = 4;
    HammerResult faulted;
    armFaults(plan);
    {
        CompileService service(so);
        NetServer server(service);
        if (server.start(error)) {
            faulted = hammerNetwork("127.0.0.1", server.port(),
                                    kTotal, 2, machineText, "dms",
                                    kSeed, mix, policy);
        }
        server.stop();
    }
    disarmFaults();
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(faulted.requests, kTotal);
    EXPECT_EQ(terminal(faulted), kTotal);
    EXPECT_GT(faulted.retries, 0);
}

} // namespace
} // namespace dms
