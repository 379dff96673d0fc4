#include "serve/loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "obs/histogram.h"
#include "serve/net.h"
#include "support/diag.h"
#include "support/strings.h"
#include "workload/suite.h"
#include "workload/text.h"

namespace dms {

ZipfPicker::ZipfPicker(size_t n, double exponent) : cum_(n)
{
    for (size_t i = 0; i < n; ++i) {
        mass_ += 1.0 /
                 std::pow(static_cast<double>(i) + 1.0, exponent);
        cum_[i] = mass_;
    }
}

size_t
ZipfPicker::pick(Rng &rng) const
{
    double u = rng.uniform() * mass_;
    size_t i = 0;
    while (i + 1 < cum_.size() && cum_[i] < u)
        ++i;
    return i;
}

std::vector<std::string>
hotKernelTexts()
{
    std::vector<std::string> out;
    for (const Loop &k : namedKernels())
        out.push_back(loopToText(k));
    return out;
}

std::string
coldLoopText(std::uint64_t seed, int index)
{
    Rng rng(seed ^ (0x9e3779b97f4a7c15ULL +
                    static_cast<std::uint64_t>(index) * 31337));
    SynthParams params;
    return loopToText(synthesizeLoop(rng, params, index));
}

std::string
respelledKernelText(const std::string &canonical, Rng &rng)
{
    const std::vector<std::string> lines = split(canonical, '\n');
    int ops = 0;
    for (const std::string &line : lines)
        ops += line.rfind("op ", 0) == 0 ? 1 : 0;
    const int shift = rng.range(1, 997);
    const int stride = rng.range(1, 3);
    const bool reversed = rng.chance(0.25);
    auto remap = [&](int id) {
        return shift + stride * (reversed ? ops - 1 - id : id);
    };

    std::string out = "# respelled\n";
    for (const std::string &line : lines) {
        if (line.empty())
            continue;
        std::vector<std::string> f = split(line, ' ');
        const size_t ids = f[0] == "op" ? 1 : f[0] == "edge" ? 2 : 0;
        for (size_t k = 1; k <= ids && k < f.size(); ++k) {
            int id = 0;
            parseInt(f[k], id);
            f[k] = std::to_string(remap(id));
        }
        if (rng.chance(0.15))
            out += "#  comment line\n";
        if (rng.chance(0.1))
            out += "\n";
        out.append(static_cast<size_t>(rng.range(0, 3)), ' ');
        for (size_t k = 0; k < f.size(); ++k) {
            if (k > 0)
                out.append(static_cast<size_t>(rng.range(1, 2)), ' ');
            out += f[k];
        }
        out.append(static_cast<size_t>(rng.range(0, 2)), ' ');
        out += '\n';
    }
    return out;
}

int
RetryPolicy::delayMs(int attempt, Rng &rng) const
{
    double base = static_cast<double>(std::max(backoffBaseMs, 0));
    for (int i = 0; i < attempt && base < backoffMaxMs; ++i)
        base *= 2;
    base = std::min(base, static_cast<double>(
                              std::max(backoffMaxMs, 0)));
    // Deterministic jitter in [0.5, 1.0): spreads synchronized
    // retry herds without losing reproducibility per client rng.
    return static_cast<int>(base * (0.5 + rng.uniform() * 0.5));
}

CompileService::ResultPtr
compileWithRetry(CompileService &service, CompileRequest request,
                 const RetryPolicy &policy, Rng &rng, int *retries)
{
    request.deadlineMs = policy.deadlineMs;
    CompileService::ResultPtr result;
    for (int attempt = 0;; ++attempt) {
        result = service.compile(request, policy.submitWaitMs);
        if (attempt + 1 >= std::max(policy.maxAttempts, 1) ||
            !policy.shouldRetry(result->status))
            return result;
        if (retries != nullptr)
            ++*retries;
        std::this_thread::sleep_for(std::chrono::milliseconds(
            policy.delayMs(attempt, rng)));
    }
}

namespace {

/**
 * One client thread's tallies. Each client records into its own
 * histogram, so warm-phase clients never contend on shared
 * atomics; the tallies are folded after the join.
 */
struct ClientTally
{
    obs::LatencyHistogram latency;
    int retries = 0;
    int failures = 0;
    int byStatus[kCompileStatusCount] = {};

    void
    add(const CompileResult &result,
        std::chrono::steady_clock::time_point r0)
    {
        latency.record(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - r0)
                           .count());
        ++byStatus[static_cast<size_t>(result.status)];
        if (!result.parsed || !result.ok)
            ++failures;
    }
};

/** The standard serving request for one loop text. */
CompileRequest
hammerRequest(std::string loopText, const std::string &machineText,
              const std::string &scheduler)
{
    CompileRequest req;
    req.loopText = std::move(loopText);
    req.machineText = machineText;
    req.options.scheduler = scheduler;
    req.options.regalloc = true;
    return req;
}

/**
 * Run @p client(rng, tally) on max(@p clients, 1) threads, each
 * with its own rng (seeded from @p seed) and tally, and fold the
 * tallies into one result for @p total requests.
 */
HammerResult
runClients(int total, int clients, std::uint64_t seed,
           const std::function<void(Rng &, ClientTally &)> &client)
{
    const int n = std::max(clients, 1);
    std::vector<ClientTally> tallies(static_cast<size_t>(n));
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(n));
    for (int t = 0; t < n; ++t) {
        threads.emplace_back([&, t] {
            Rng rng(seed + static_cast<std::uint64_t>(t) * 104729);
            client(rng, tallies[static_cast<size_t>(t)]);
        });
    }
    for (std::thread &t : threads)
        t.join();

    HammerResult out;
    out.requests = total;
    out.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    obs::HistogramSnapshot latency;
    for (const ClientTally &tally : tallies) {
        out.failures += tally.failures;
        out.retries += tally.retries;
        for (size_t s = 0; s < kCompileStatusCount; ++s)
            out.byStatus[s] += tally.byStatus[s];
        latency.merge(tally.latency.snapshot());
    }
    out.p50Ms = latency.percentile(50);
    out.p90Ms = latency.percentile(90);
    out.p99Ms = latency.percentile(99);
    return out;
}

} // namespace

HammerResult
hammerService(
    CompileService &service, int total, int clients,
    const std::string &machineText, const std::string &scheduler,
    std::uint64_t seed,
    const std::function<std::string(int, Rng &)> &makeLoop,
    const RetryPolicy &policy)
{
    std::atomic<int> dispatched{0};
    return runClients(total, clients, seed, [&](Rng &rng,
                                                ClientTally &tally) {
        for (int i = dispatched.fetch_add(1); i < total;
             i = dispatched.fetch_add(1)) {
            CompileRequest req = hammerRequest(
                makeLoop(i, rng), machineText, scheduler);
            auto r0 = std::chrono::steady_clock::now();
            CompileService::ResultPtr result = compileWithRetry(
                service, std::move(req), policy, rng,
                &tally.retries);
            tally.add(*result, r0);
        }
    });
}

HammerResult
hammerNetwork(
    const std::string &host, int port, int total, int clients,
    const std::string &machineText, const std::string &scheduler,
    std::uint64_t seed,
    const std::function<std::string(int, Rng &)> &makeLoop,
    const RetryPolicy &policy, int connectTimeoutMs)
{
    std::atomic<int> dispatched{0};
    return runClients(total, clients, seed, [&](Rng &rng,
                                                ClientTally &tally) {
        NetClient net;
        std::string err;
        net.connect(host, port, connectTimeoutMs, err);
        for (int i = dispatched.fetch_add(1); i < total;
             i = dispatched.fetch_add(1)) {
            CompileRequest req = hammerRequest(
                makeLoop(i, rng), machineText, scheduler);
            req.deadlineMs = policy.deadlineMs;
            auto r0 = std::chrono::steady_clock::now();
            CompileResult result;
            for (int attempt = 0;; ++attempt) {
                if (!net.connected())
                    net.connect(host, port, connectTimeoutMs,
                                err);
                if (!net.compile(req, result, err)) {
                    // Transport failure (refused, EOF from an
                    // injected serve.net.* fault, garbled
                    // response): a retryable Failed, with a
                    // reconnect on the next attempt.
                    result = CompileResult();
                    result.status = CompileStatus::Failed;
                    result.parsed = true;
                    result.error = "transport: " + err;
                }
                if (attempt + 1 >=
                        std::max(policy.maxAttempts, 1) ||
                    !policy.shouldRetry(result.status))
                    break;
                ++tally.retries;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(
                        policy.delayMs(attempt, rng)));
            }
            tally.add(result, r0);
        }
    });
}

} // namespace dms
