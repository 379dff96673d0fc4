/**
 * @file
 * The untraced run: set-up timed several times, a closed-loop phase
 * of timed batches (service workloads) or runMatrix chunks (the
 * paper matrix), then the correctness check outside the timed
 * region. Reports every end-to-end metric.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

#include "internal.h"
#include "machine/desc.h"
#include "sim/exec.h"
#include "support/strings.h"
#include "workload/suite.h"
#include "workload/text.h"

namespace perfbench {

using namespace dms;

namespace {

constexpr std::uint64_t kSampleSalt = 0x5a5a17ULL;

/** Every Nth request (by seeded hash) is a check candidate. */
constexpr std::uint64_t kSamplePeriod = 16;

/** Checked results per service run. */
constexpr int kSampleCap = 256;

/** Set-ups per run, half before and half after the timed phase;
 *  setup_s is their fast decile, like the timing metrics. */
constexpr int kSetups = 100;

/** Matrix cells checked per paper_matrix run (about). */
constexpr std::uint64_t kCellSamplePeriod = 400;

bool
served(CompileStatus s)
{
    return s == CompileStatus::Ok || s == CompileStatus::Unschedulable;
}

/** The rig of service workload @p w. */
RigShape
rigShape(const Shape &shape)
{
    RigShape rs;
    rs.workers = shape.workers;
    rs.clients = shape.clients;
    rs.cacheCapacity = shape.cacheCapacity;
    return rs;
}

/**
 * Share of a run's batches, the fastest by rps, that its timing
 * metrics come from. A shared host's slow spells make batches slower,
 * never faster, so the fast end tracks the program and not the share
 * of slow spells in a run.
 */
constexpr double kFastShare = 0.10;

/** Timing metrics of a run's fastest batches. */
struct FastBatches
{
    size_t batches = 0;
    double rps = 0;   ///< mean batch rps
    double p50Ms = 0; ///< median of the batches' p50s
    double p99Ms = 0; ///< p99 of the batches' pooled latencies
    double cpuMs = 0; ///< mean process CPU per request
};

FastBatches
fastBatches(const LoopStats &st, size_t batch)
{
    FastBatches f;
    std::vector<size_t> order(st.batchRps.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return st.batchRps[a] > st.batchRps[b];
    });
    f.batches = std::max<size_t>(
        1, static_cast<size_t>(std::lround(kFastShare * order.size())));
    f.batches = std::min(f.batches, order.size());
    if (f.batches == 0)
        return f;
    std::vector<double> p50;
    std::vector<double> tail;
    for (size_t k = 0; k < f.batches; ++k) {
        const size_t b = order[k];
        f.rps += st.batchRps[b];
        f.cpuMs += st.batchCpuMs[b];
        p50.push_back(st.batchP50Ms[b]);
        tail.insert(tail.end(), st.batchTailMs[b].begin(),
                    st.batchTailMs[b].end());
    }
    f.rps /= static_cast<double>(f.batches);
    f.cpuMs /= static_cast<double>(f.batches);
    f.p50Ms = median(std::move(p50));
    // Nearest-rank p99 of the pooled samples, counted from the top;
    // each batch kept its slowest kTailShare, which covers the rank.
    const double pooled = static_cast<double>(f.batches * batch);
    const size_t from_top = static_cast<size_t>(
        pooled - std::ceil(0.99 * pooled) + 1);
    std::sort(tail.begin(), tail.end(), std::greater<>());
    f.p99Ms = tail[std::min(from_top, tail.size()) - 1];
    return f;
}

} // namespace

ServicePhase
runServicePhase(Workload w, const Shape &shape, const Streams &streams,
                double seconds, int setups, int sampleCap)
{
    std::unique_ptr<OneCpu> pin;
    if (shape.placement == Placement::OneCpu)
        pin = std::make_unique<OneCpu>();

    // Set-up, timed on fresh rigs, half before the timed phase (the
    // last of those is measured) and half after it, so set-up time
    // samples the host at both ends of the run. Tear-down is not
    // timed.
    ServicePhase out;
    std::unique_ptr<Rig> rig;
    const auto setUp = [&] {
        rig.reset();
        const double t0 = nowSeconds();
        rig = std::make_unique<Rig>(w, streams, rigShape(shape));
        rig->prime();
        out.setups.push_back(nowSeconds() - t0);
    };
    const int before = std::max((setups + 1) / 2, 1);
    for (int k = 0; k < before; ++k)
        setUp();

    long next = 0;
    runClosedLoop(*rig, streams, w, shape, next, /*seconds=*/0,
                  /*warmup=*/1, /*sampleCap=*/0);
    out.before = rig->metrics();
    out.stats = runClosedLoop(*rig, streams, w, shape, next, seconds, 0,
                              sampleCap);
    out.after = rig->metrics();
    out.rssMb = peakRssMb();
    for (int k = before; k < setups; ++k)
        setUp();
    return out;
}

std::string
ServicePhase::splitProblem(Workload w) const
{
    const auto delta = [&](const char *name) {
        return counterOf(after, name) - counterOf(before, name);
    };
    switch (w) {
    case Workload::ColdUnique:
        if (delta("serve.hits") + delta("serve.coalesced") != 0)
            return "cold_unique hit the cache";
        break;
    case Workload::RespelledHits:
        if (delta("serve.misses") != 0)
            return "respelled_hits compiled after priming";
        break;
    case Workload::PaperMatrix:
        break;
    }
    return "";
}

namespace {

void
shapeConfig(Report &rep, const Shape &shape, const RunArgs &args)
{
    rep.config.push_back(strfmt("\"clients\":%d", shape.clients));
    rep.config.push_back(strfmt("\"workers\":%d", shape.workers));
    rep.config.push_back(strfmt("\"jobs\":%d", shape.jobs));
    rep.config.push_back(
        strfmt("\"cache_capacity\":%d", shape.cacheCapacity));
    rep.config.push_back(strfmt("\"batch\":%d", shape.batch));
    rep.config.push_back(strfmt("\"seconds\":%g", args.seconds));
}

Report
runService(const RunArgs &args, const Shape &shape)
{
    const Workload w = args.workload;
    Report rep;
    shapeConfig(rep, shape, args);
    rep.config.push_back(strfmt(
        "\"cpus\":%d",
        shape.placement == Placement::OneCpu ? 1 : usableCpus()));
    const Streams streams(args.seed);
    const ServicePhase phase = runServicePhase(
        w, shape, streams, args.seconds, kSetups, kSampleCap);
    const LoopStats &st = phase.stats;
    const std::vector<double> &setups = phase.setups;
    const auto delta = [&](const char *name) {
        return counterOf(phase.after, name) - counterOf(phase.before, name);
    };
    const std::string split = phase.splitProblem(w);
    if (!split.empty())
        rep.fail(split);

    // Correctness, outside the timed region.
    Checker checker(streams);
    long check_failures = 0;
    for (const Sample &s : st.samples) {
        const std::string why = checker.check(s.request, *s.result);
        if (!why.empty()) {
            ++check_failures;
            rep.fail(why);
        }
    }
    if (w != Workload::ColdUnique) {
        for (const std::string &text : streams.hotTexts()) {
            const std::string why = checker.checkLoop(text);
            if (!why.empty()) {
                ++check_failures;
                rep.fail(why);
            }
        }
    }

    const long requests = std::max(st.requests, 1L);
    rep.attempted = requests;
    rep.failed = std::min(requests,
                          st.requests - st.served + check_failures);
    if (rep.failed > 0 && rep.correct)
        rep.fail(strfmt("%ld of %ld requests failed", rep.failed,
                        requests));

    const FastBatches fast =
        fastBatches(st, static_cast<size_t>(shape.batch));
    rep.set("rps", fast.rps);
    rep.set("latency_p50_ms", fast.p50Ms);
    rep.set("latency_p99_ms", fast.p99Ms);
    rep.set("served_frac",
            static_cast<double>(requests - rep.failed) / requests);
    rep.set("ii_over_mii", st.sumMii > 0 ? st.sumIi / st.sumMii : 0.0);
    rep.set("rel_cycles", checker.relCycles());
    rep.set("cpu_ms_per_req", fast.cpuMs);
    rep.set("peak_rss_mb", phase.rssMb);
    rep.set("setup_s", percentile(setups, 100 * kFastShare));

    rep.note(strfmt("set-up: %d times, min %.3f ms, p10 %.3f ms, "
                    "median %.3f ms, max %.3f ms",
                    kSetups, percentile(setups, 0) * 1e3,
                    percentile(setups, 10) * 1e3, median(setups) * 1e3,
                    percentile(setups, 100) * 1e3));
    rep.note(strfmt("%s: %ld requests in %zu batches, %.3f s "
                    "measured; timing from the fastest %zu batches "
                    "(%zu latency samples)",
                    workloadName(w), st.requests, st.batchRps.size(),
                    st.seconds, fast.batches,
                    fast.batches * static_cast<size_t>(shape.batch)));
    const auto spread = [&](const char *what, const std::vector<double> &v,
                            double scale) {
        std::string line = strfmt("batch %s:", what);
        for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0})
            line += strfmt(" p%.0f %.6g", p, percentile(v, p) * scale);
        rep.note(line);
    };
    spread("rps", st.batchRps, 1);
    spread("p50_us", st.batchP50Ms, 1e3);
    spread("p99_us", st.batchP99Ms, 1e3);
    spread("cpu_us_per_req", st.batchCpuMs, 1e3);
    rep.note(strfmt("service deltas: requests %llu hits %llu misses "
                    "%llu evictions %llu",
                    static_cast<unsigned long long>(
                        delta("serve.requests")),
                    static_cast<unsigned long long>(
                        delta("serve.hits")),
                    static_cast<unsigned long long>(
                        delta("serve.misses")),
                    static_cast<unsigned long long>(
                        delta("cache.evictions"))));
    rep.note(strfmt("check: %zu sampled results, %zu distinct loops "
                    "simulated, %ld mismatches",
                    st.samples.size(), checker.loops(),
                    check_failures));
    return rep;
}

/** One checked cell of the paper matrix. */
struct CellSample
{
    size_t loop = 0;
    int clusters = 0;
    bool clustered = false;
    LoopRun run;
};

std::string
checkCell(const Loop &loop, const CellSample &cell)
{
    MachineModel machine = MachineModel::unclustered(1);
    std::string error;
    const char *tmpl = cell.clustered ? kClusteredMachineTemplate
                                      : kUnclusteredMachineTemplate;
    if (!machineFromText(expandMachineTemplate(tmpl, cell.clusters),
                         machine, error))
        return "machine template: " + error;
    PipelineOptions po;
    po.scheduler = cell.clustered ? "dms" : "ims";
    po.verify = true;
    po.regalloc = true;
    po.perf = true;
    Pipeline pipeline(po);
    CompilationContext ctx;
    const LoopRun direct = runLoop(pipeline, loop, machine, ctx);
    if (direct != cell.run)
        return strfmt("matrix cell (%s, %d clusters, %s) differs from "
                      "a direct Pipeline::run",
                      loop.name.c_str(), cell.clusters,
                      po.scheduler.c_str());
    if (direct.ok) {
        const std::string why =
            simulate(ctx, machine, direct.iterations);
        if (!why.empty())
            return strfmt("matrix cell (%s, %d clusters): %s",
                          loop.name.c_str(), cell.clusters,
                          why.c_str());
    }
    return "";
}

Report
runPaperMatrix(const RunArgs &args, const Shape &shape)
{
    std::unique_ptr<OneCpu> pin;
    if (shape.placement == Placement::OneCpu)
        pin = std::make_unique<OneCpu>();
    Report rep;
    shapeConfig(rep, shape, args);
    rep.config.push_back(strfmt(
        "\"cpus\":%d",
        shape.placement == Placement::OneCpu ? 1 : usableCpus()));
    const Streams streams(args.seed);
    const std::vector<Loop> suite = standardSuite();
    const RunnerOptions opts = matrixOptions(shape.jobs);
    const size_t cells_per_loop =
        2 * static_cast<size_t>(opts.maxClusters);

    // Set-up: the runner's fixed per-call cost (machine
    // instantiation, scheduler checks, pool start) on a one-loop
    // sweep, half before and half after the timed phase.
    std::vector<double> setups;
    const auto setUp = [&](int from, int to) {
        for (int k = from; k < to; ++k) {
            const std::vector<Loop> one = {suite[static_cast<size_t>(k)]};
            const double t0 = nowSeconds();
            runMatrix(one, opts);
            setups.push_back(nowSeconds() - t0);
        }
    };
    setUp(0, kSetups / 2);

    // The suite cut into fixed runMatrix calls of `chunk`
    // consecutive loops; each pass makes every call once, in a
    // seeded order. A call's wall and CPU time are its fastest over
    // the passes: a shared host's slow spells only ever add time.
    const size_t chunk = static_cast<size_t>(shape.batch);
    std::vector<std::vector<Loop>> calls((suite.size() + chunk - 1) /
                                         chunk);
    for (size_t i = 0; i < suite.size(); ++i)
        calls[i / chunk].push_back(suite[i]);
    std::vector<double> best_s(calls.size(), 0);
    std::vector<double> best_cpu(calls.size(), 0);

    std::vector<CellSample> samples;
    double measured = 0;
    long cells = 0;
    long passes = 0;
    double sum_ii = 0;
    double sum_mii = 0;
    double dms_cycles = 0;
    double ims_cycles = 0;
    for (long pass = 0; measured < args.seconds; ++pass) {
        const std::vector<size_t> order =
            streams.passOrder(calls.size(), pass);
        size_t k = 0;
        for (; k < order.size() && measured < args.seconds; ++k) {
            const std::vector<Loop> &loops = calls[order[k]];
            const double c0 = cpuSeconds();
            const double t0 = nowSeconds();
            const std::vector<ConfigRun> m = runMatrix(loops, opts);
            const double dt = nowSeconds() - t0;
            const double cpu = cpuSeconds() - c0;
            measured += dt;
            double &best = best_s[order[k]];
            best = best == 0 ? dt : std::min(best, dt);
            double &best_c = best_cpu[order[k]];
            best_c = best_c == 0 ? cpu : std::min(best_c, cpu);
            cells += static_cast<long>(loops.size() * cells_per_loop);
            if (pass != 0)
                continue;

            // Quality sums and check samples come from the first
            // pass, which sweeps the whole suite once.
            for (const ConfigRun &cfg : m) {
                for (size_t li = 0; li < loops.size(); ++li) {
                    const LoopRun &d = cfg.clustered[li];
                    const LoopRun &u = cfg.unclustered[li];
                    const size_t idx = order[k] * chunk + li;
                    if (d.ok) {
                        sum_ii += d.ii;
                        sum_mii += d.mii;
                    }
                    if (d.ok && u.ok) {
                        dms_cycles += static_cast<double>(d.cycles);
                        ims_cycles += static_cast<double>(u.cycles);
                    }
                    for (int col = 0; col < 2; ++col) {
                        const long key = static_cast<long>(
                            idx * 32 +
                            static_cast<size_t>(cfg.clusters * 2 + col));
                        if (streams.mix(kSampleSalt, key) %
                                kCellSamplePeriod !=
                            0)
                            continue;
                        samples.push_back({idx, cfg.clusters, col == 1,
                                           col == 1 ? d : u});
                    }
                }
            }
        }
        if (k == order.size())
            ++passes;
    }
    // The fastest sweep: every call once at its best time. A run too
    // short for one pass covers the calls it made.
    std::vector<double> call_ms;
    double sweep_s = 0;
    double sweep_cpu = 0;
    double sweep_cells = 0;
    for (size_t c = 0; c < calls.size(); ++c) {
        if (best_s[c] == 0)
            continue;
        call_ms.push_back(best_s[c] * 1e3);
        sweep_s += best_s[c];
        sweep_cpu += best_cpu[c];
        sweep_cells += static_cast<double>(calls[c].size() * cells_per_loop);
    }
    const double rss = peakRssMb();
    setUp(kSetups / 2, kSetups);

    long check_failures = 0;
    for (const CellSample &s : samples) {
        const std::string why = checkCell(suite[s.loop], s);
        if (!why.empty()) {
            ++check_failures;
            rep.fail(why);
        }
    }

    const long attempted = std::max(cells, 1L);
    rep.attempted = attempted;
    rep.failed = std::min(attempted, check_failures);
    rep.set("rps", sweep_cells / sweep_s);
    rep.set("latency_p50_ms", percentile(call_ms, 50));
    rep.set("latency_p99_ms", percentile(call_ms, 99));
    rep.set("served_frac",
            static_cast<double>(attempted - rep.failed) / attempted);
    rep.set("ii_over_mii", sum_mii > 0 ? sum_ii / sum_mii : 0.0);
    rep.set("rel_cycles",
            ims_cycles > 0 ? dms_cycles / ims_cycles : 0.0);
    rep.set("cpu_ms_per_req", sweep_cpu * 1e3 / sweep_cells);
    rep.set("peak_rss_mb", rss);
    rep.set("setup_s", percentile(setups, 100 * kFastShare));
    rep.note(strfmt("paper_matrix: %zu loops x %d cluster counts x 2 "
                    "machines as %zu runMatrix calls of %zu loops; %ld "
                    "cells, %ld complete passes, %.3f s measured; "
                    "fastest sweep %.3f s",
                    suite.size(), opts.maxClusters, calls.size(), chunk,
                    cells, passes, measured, sweep_s));
    rep.note(strfmt("check: %zu sampled cells re-run directly and "
                    "simulated, %ld mismatches",
                    samples.size(), check_failures));
    return rep;
}

} // namespace

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    const size_t n = v.size();
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
    rank = std::clamp<size_t>(rank, 1, n);
    std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
    return v[rank - 1];
}

std::uint64_t
counterOf(const obs::MetricsSnapshot &snap, const char *name)
{
    const auto *c = snap.findCounter(name);
    return c != nullptr ? c->value : 0;
}

double
gaugeOf(const obs::MetricsSnapshot &snap, const char *name)
{
    for (const auto &g : snap.gauges) {
        if (g.name == name)
            return g.value;
    }
    return 0.0;
}

OneCpu::OneCpu()
{
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0)
        return;
    // The last CPU of the mask: the first ones tend to take more of
    // the machine's interrupts and housekeeping.
    int last = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &saved_))
            last = c;
    }
    if (last < 0)
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(last, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
}

void
OneCpu::restore()
{
    if (pinned_)
        sched_setaffinity(0, sizeof(saved_), &saved_);
    pinned_ = false;
}

Rig::Rig(Workload w, const Streams &streams, const RigShape &shape)
    : workload_(w), streams_(streams)
{
    ServeOptions opts;
    opts.workers = shape.workers;
    opts.cacheCapacity = shape.cacheCapacity;
    service_ = std::make_unique<CompileService>(opts);
    std::string error;
    if (shape.tcp) {
        server_ = std::make_unique<NetServer>(*service_);
        if (!server_->start(error))
            fatal("perfbench: cannot start the loopback server: %s",
                  error.c_str());
    }
    for (int c = 0; shape.tcp && c < std::max(shape.clients, 1); ++c) {
        clients_.push_back(std::make_unique<NetClient>());
        if (!clients_.back()->connect("127.0.0.1", server_->port(),
                                      5000, error))
            fatal("perfbench: cannot connect: %s", error.c_str());
    }
}

Rig::~Rig() = default;

void
Rig::prime()
{
    if (workload_ == Workload::ColdUnique) {
        // One compile per worker, so every worker's context and
        // scheduler instances exist before timing.
        for (int i = 0; i < service_->workers(); ++i)
            issue(0, streams_.warmup(i).req);
        return;
    }
    if (workload_ == Workload::PaperMatrix)
        return;
    for (const std::string &text : streams_.hotTexts())
        issue(0, streams_.request(text));
}

CompileService::ResultPtr
Rig::issue(int client, const CompileRequest &req)
{
    if (server_ == nullptr)
        return service_->compile(req);
    NetClient &net = *clients_[static_cast<size_t>(client)];
    CompileResult out;
    std::string error;
    if (!net.connected())
        net.connect("127.0.0.1", server_->port(), 5000, error);
    if (!net.compile(req, out, error)) {
        out = CompileResult();
        out.status = CompileStatus::Failed;
        out.error = "transport: " + error;
    }
    return std::make_shared<const CompileResult>(std::move(out));
}

obs::MetricsSnapshot
Rig::metrics() const
{
    return server_ != nullptr ? server_->metrics() : service_->metrics();
}

std::vector<Request>
generate(const Streams &streams, Workload w, long first, int n)
{
    std::vector<Request> out;
    out.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        out.push_back(streams.at(w, first + i));
    return out;
}

namespace {

/** A reusable rendezvous of a fixed number of threads. */
class Barrier
{
  public:
    explicit Barrier(int n) : n_(n) {}

    void
    wait()
    {
        std::unique_lock<std::mutex> lock(mu_);
        const long round = round_;
        if (++arrived_ == n_) {
            arrived_ = 0;
            ++round_;
            cv_.notify_all();
            return;
        }
        cv_.wait(lock, [&] { return round_ != round; });
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    const int n_;
    int arrived_ = 0;
    long round_ = 0;
};

} // namespace

LoopStats
runClosedLoop(Rig &rig, const Streams &streams, Workload w,
              const Shape &shape, long &next, double seconds, int warmup,
              int sampleCap)
{
    struct Tally
    {
        std::vector<double> latMs;
        long served = 0;
        long ok = 0;
        double ii = 0;
        double mii = 0;
        std::vector<Sample> samples;
    };

    // A crew of persistent client threads (the calling thread is
    // client 0). Per batch: every client generates a stride of the
    // batch (untimed), then all pull requests from it closed-loop
    // (timed), then client 0 records the batch and decides whether
    // to run another.
    const int clients = std::max(shape.clients, 1);
    const size_t n = static_cast<size_t>(shape.batch);
    std::vector<Request> batch(n);
    std::vector<char> pick(n);
    std::vector<Tally> tally(static_cast<size_t>(clients));
    std::atomic<size_t> cursor{0};
    Barrier barrier(clients);
    long first = next;
    bool measured = false;
    bool stop = false;
    std::atomic<int> sampled{0};
    double t0 = 0;
    double c0 = 0;
    LoopStats stats;

    const auto record = [&] {
        const double wall = nowSeconds() - t0;
        const double cpu = cpuSeconds() - c0;
        if (!measured)
            return;
        std::vector<double> lat;
        lat.reserve(n);
        for (Tally &t : tally) {
            lat.insert(lat.end(), t.latMs.begin(), t.latMs.end());
            stats.served += t.served;
            stats.ok += t.ok;
            stats.sumIi += t.ii;
            stats.sumMii += t.mii;
            for (Sample &s : t.samples)
                stats.samples.push_back(std::move(s));
        }
        stats.batchRps.push_back(static_cast<double>(n) / wall);
        stats.batchP50Ms.push_back(percentile(lat, 50));
        stats.batchP99Ms.push_back(percentile(lat, 99));
        stats.batchCpuMs.push_back(cpu * 1e3 / static_cast<double>(n));
        const size_t tail = static_cast<size_t>(
            std::ceil(kTailShare * static_cast<double>(n)));
        std::nth_element(lat.begin(), lat.begin() + (tail - 1), lat.end(),
                         std::greater<>());
        stats.batchTailMs.emplace_back(lat.begin(), lat.begin() + tail);
        stats.requests += static_cast<long>(n);
        stats.seconds += wall;
    };

    const auto crew = [&](int c) {
        Tally &t = tally[static_cast<size_t>(c)];
        for (int b = 0;; ++b) {
            if (c == 0) {
                measured = b >= warmup;
                stop = measured && stats.seconds >= seconds;
                first = next;
                next += static_cast<long>(n);
                cursor.store(0, std::memory_order_relaxed);
            }
            barrier.wait();
            if (stop)
                return;
            for (size_t i = static_cast<size_t>(c); i < n;
                 i += static_cast<size_t>(clients)) {
                batch[i] = streams.at(w, first + static_cast<long>(i));
                pick[i] = measured &&
                          streams.mix(kSampleSalt, batch[i].index) %
                                  kSamplePeriod ==
                              0;
            }
            t = Tally();
            t.latMs.reserve(n / static_cast<size_t>(clients) + 1);
            barrier.wait();
            if (c == 0) {
                c0 = cpuSeconds();
                t0 = nowSeconds();
            }
            for (;;) {
                const size_t i =
                    cursor.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    break;
                const double r0 = nowSeconds();
                CompileService::ResultPtr r = rig.issue(c, batch[i].req);
                t.latMs.push_back((nowSeconds() - r0) * 1e3);
                if (served(r->status))
                    ++t.served;
                if (r->status == CompileStatus::Ok) {
                    ++t.ok;
                    t.ii += r->run.ii;
                    t.mii += r->run.mii;
                }
                if (pick[i] && sampled.fetch_add(1) < sampleCap)
                    t.samples.push_back({batch[i], std::move(r)});
            }
            barrier.wait();
            if (c == 0)
                record();
        }
    };

    std::vector<std::thread> threads;
    for (int c = 1; c < clients; ++c)
        threads.emplace_back(crew, c);
    crew(0);
    for (std::thread &t : threads)
        t.join();
    return stats;
}

std::string
canonicalLoop(const std::string &loopText)
{
    Loop loop;
    std::string error;
    if (!loopFromText(loopText, loop, error))
        return "";
    return loopToText(loop);
}

std::string
simulate(const CompilationContext &ctx, const MachineModel &machine,
         long iterations)
{
    const std::vector<std::string> problems = simulateAndCheck(
        ctx.scheduledDdg(), machine, *ctx.result.sched.schedule,
        std::clamp<long>(iterations, 1, 16));
    return problems.empty() ? "" : "simulation: " + problems.front();
}

Checker::Checker(const Streams &streams) : streams_(streams)
{
    for (const std::string &text : streams.hotTexts())
        hotCanonical_.push_back(canonicalLoop(text));
}

const Checker::Direct &
Checker::direct(const Loop &loop, const MachineModel &machine,
                const PipelineOptions &options,
                const std::string &canonical)
{
    const std::string key = canonical + '\x01' +
                            machineToText(machine) + '\x01' +
                            options.scheduler;
    auto it = memo_.find(key);
    if (it != memo_.end())
        return it->second;

    Direct d;
    {
        Pipeline pipeline(options);
        CompilationContext ctx;
        d.run = runLoop(pipeline, loop, machine, ctx);
        if (d.run.ok)
            d.problem = simulate(ctx, machine, d.run.iterations);
    }
    // The equal-width unclustered IMS reference (paper fig 5).
    if (d.run.ok && machine.clustered()) {
        PipelineOptions ims = options;
        ims.scheduler = "ims";
        Pipeline pipeline(ims);
        CompilationContext ctx;
        const LoopRun ref =
            runLoop(pipeline, loop,
                    MachineModel::unclustered(machine.numClusters()),
                    ctx);
        if (ref.ok) {
            dmsCycles_ += static_cast<double>(d.run.cycles);
            imsCycles_ += static_cast<double>(ref.cycles);
        }
    }
    return memo_.emplace(key, std::move(d)).first->second;
}

std::string
Checker::check(const Request &request, const CompileResult &result)
{
    const CompileRequest &req = request.req;
    MachineModel machine = MachineModel::unclustered(1);
    std::string error;
    if (!machineFromText(req.machineText, machine, error))
        return strfmt("request %ld: machine text: %s", request.index,
                      error.c_str());
    Loop loop;
    if (!loopFromText(req.loopText, loop, error, machine.latency()))
        return strfmt("request %ld: loop text: %s", request.index,
                      error.c_str());
    const std::string canonical = loopToText(loop);
    if (request.hot >= 0 &&
        canonical != hotCanonical_[static_cast<size_t>(request.hot)])
        return strfmt("request %ld: spelling does not canonicalise to "
                      "hot kernel %d",
                      request.index, request.hot);
    if (!served(result.status))
        return strfmt("request %ld: status %s: %s", request.index,
                      compileStatusName(result.status),
                      result.error.c_str());

    PipelineOptions options = req.options;
    options.perf = true;
    const Direct &d = direct(loop, machine, options, canonical);
    if (!d.problem.empty())
        return strfmt("request %ld: %s", request.index,
                      d.problem.c_str());
    if ((result.status == CompileStatus::Ok) != d.run.ok ||
        result.run != d.run)
        return strfmt("request %ld: served LoopRun differs from a "
                      "direct Pipeline::run",
                      request.index);
    return "";
}

std::string
Checker::checkLoop(const std::string &loopText)
{
    const CompileRequest req = streams_.request(loopText);
    MachineModel machine = MachineModel::unclustered(1);
    std::string error;
    Loop loop;
    if (!machineFromText(req.machineText, machine, error) ||
        !loopFromText(req.loopText, loop, error, machine.latency()))
        return "hot loop: " + error;
    const Direct &d =
        direct(loop, machine, req.options, loopToText(loop));
    if (!d.problem.empty())
        return "hot loop " + loop.name + ": " + d.problem;
    return "";
}

double
Checker::relCycles() const
{
    return imsCycles_ > 0 ? dmsCycles_ / imsCycles_ : 0.0;
}

Report
runEndToEnd(const RunArgs &args)
{
    const Shape shape = shapeOf(args.workload, usableCpus());
    return args.workload == Workload::PaperMatrix
               ? runPaperMatrix(args, shape)
               : runService(args, shape);
}

} // namespace perfbench
