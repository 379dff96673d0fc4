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
#include "support/thread_pool.h"
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

namespace {

/**
 * The one client-side retry loop: @p tryOnce() makes one attempt
 * and returns its status; retryable statuses are retried with
 * backoff until the policy's attempt budget runs out. Returns the
 * last status; @p retries counts the extra attempts.
 */
template <class TryOnce>
CompileStatus
retryLoop(const RetryPolicy &policy, Rng &rng, int &retries,
          TryOnce &&tryOnce)
{
    for (int attempt = 0;; ++attempt) {
        const CompileStatus status = tryOnce();
        if (attempt + 1 >= std::max(policy.maxAttempts, 1) ||
            !policy.shouldRetry(status))
            return status;
        ++retries;
        std::this_thread::sleep_for(std::chrono::milliseconds(
            policy.delayMs(attempt, rng)));
    }
}

/**
 * One load-generator client: its rng, its connection (network
 * transport only) and its tallies. Each slot sits on cache lines of
 * its own, so clients never write a line another client is using;
 * the slots are folded after the join.
 */
struct alignas(64) ClientSlot
{
    Rng rng{0};
    NetClient net;
    obs::LatencyHistogram latency;
    int retries = 0;
    int byStatus[kCompileStatusCount] = {};
};

/** max(@p clients, 1) slots, slot t's rng seeded seed + t * 104729. */
std::vector<ClientSlot>
clientSlots(int clients, std::uint64_t seed)
{
    std::vector<ClientSlot> slots(
        static_cast<size_t>(std::max(clients, 1)));
    for (size_t t = 0; t < slots.size(); ++t)
        slots[t].rng = Rng(seed + t * 104729);
    return slots;
}

/**
 * The hammer behind both transports: one thread per slot pulls
 * request numbers below @p total from a shared counter, builds the
 * standard serving request (@p scheduler, regalloc, the policy's
 * deadline) around makeLoop(i, rng), and runs it through the retry
 * loop, each attempt being @p tryOnce(slot, request). Latency is
 * timed client-side around the whole retry loop.
 */
template <class TryOnce>
HammerResult
hammer(std::vector<ClientSlot> &slots, int total,
       const std::string &machineText, const std::string &scheduler,
       const std::function<std::string(int, Rng &)> &makeLoop,
       const RetryPolicy &policy, TryOnce &&tryOnce)
{
    using Clock = std::chrono::steady_clock;
    std::atomic<int> dispatched{0};
    const auto t0 = Clock::now();
    parallelForWorker(
        slots.size(), static_cast<int>(slots.size()),
        [&](size_t t, int) {
            ClientSlot &slot = slots[t];
            for (int i = dispatched.fetch_add(1); i < total;
                 i = dispatched.fetch_add(1)) {
                CompileRequest req;
                req.loopText = makeLoop(i, slot.rng);
                req.machineText = machineText;
                req.options.scheduler = scheduler;
                req.options.regalloc = true;
                req.deadlineMs = policy.deadlineMs;
                const auto r0 = Clock::now();
                const CompileStatus status =
                    retryLoop(policy, slot.rng, slot.retries,
                              [&] { return tryOnce(slot, req); });
                slot.latency.record(
                    std::chrono::duration<double, std::milli>(
                        Clock::now() - r0)
                        .count());
                ++slot.byStatus[static_cast<size_t>(status)];
            }
        });

    HammerResult out;
    out.requests = total;
    out.seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    obs::HistogramSnapshot latency;
    for (const ClientSlot &slot : slots) {
        out.retries += slot.retries;
        for (size_t s = 0; s < kCompileStatusCount; ++s) {
            out.byStatus[s] += slot.byStatus[s];
            if (s != static_cast<size_t>(CompileStatus::Ok))
                out.failures += slot.byStatus[s];
        }
        latency.merge(slot.latency.snapshot());
    }
    out.p50Ms = latency.percentile(50);
    out.p90Ms = latency.percentile(90);
    out.p99Ms = latency.percentile(99);
    return out;
}

} // namespace

CompileService::ResultPtr
compileWithRetry(CompileService &service, CompileRequest request,
                 const RetryPolicy &policy, Rng &rng, int *retries)
{
    request.deadlineMs = policy.deadlineMs;
    CompileService::ResultPtr result;
    int uncounted = 0;
    retryLoop(policy, rng, retries != nullptr ? *retries : uncounted,
              [&] {
        result = service.compile(request, policy.submitWaitMs);
        return result->status;
    });
    return result;
}

HammerResult
hammerService(
    CompileService &service, int total, int clients,
    const std::string &machineText, const std::string &scheduler,
    std::uint64_t seed,
    const std::function<std::string(int, Rng &)> &makeLoop,
    const RetryPolicy &policy)
{
    std::vector<ClientSlot> slots = clientSlots(clients, seed);
    return hammer(slots, total, machineText, scheduler, makeLoop,
                  policy,
                  [&](ClientSlot &, const CompileRequest &req) {
                      return service
                          .compile(req, policy.submitWaitMs)
                          ->status;
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
    std::vector<ClientSlot> slots = clientSlots(clients, seed);
    std::string err;
    for (ClientSlot &slot : slots)
        slot.net.connect(host, port, connectTimeoutMs, err);
    return hammer(
        slots, total, machineText, scheduler, makeLoop, policy,
        [&](ClientSlot &slot, const CompileRequest &req) {
            // A transport failure (refused, EOF from an injected
            // serve.net.* fault, a garbled response) is a
            // retryable Failed, with a reconnect on the next try.
            std::string error;
            if (!slot.net.connected())
                slot.net.connect(host, port, connectTimeoutMs,
                                 error);
            CompileResult result;
            return slot.net.compile(req, result, error)
                       ? result.status
                       : CompileStatus::Failed;
        });
}

} // namespace dms
