/**
 * @file
 * Workload definitions: names, thread budgets, the seeded request
 * streams, the respelling generator, and the metric tables.
 */

#include <sched.h>

#include <algorithm>
#include <thread>

#include "bench.h"
#include "machine/desc.h"
#include "serve/loadgen.h"
#include "support/strings.h"

namespace perfbench {

using namespace dms;

namespace {

/** Warm-up loops are the same for every seed: set-up is no input. */
constexpr std::uint64_t kWarmupSeed = 0x3a3a3a3aULL;
constexpr std::uint64_t kPassSalt = 0x9a55ULL;

} // namespace

const char *
workloadName(Workload w)
{
    switch (w) {
    case Workload::ColdUnique:
        return "cold_unique";
    case Workload::RespelledHits:
        return "respelled_hits";
    case Workload::PaperMatrix:
        return "paper_matrix";
    }
    return "unknown";
}

bool
workloadFromName(const std::string &name, Workload &out)
{
    for (Workload w : kWorkloads) {
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

int
usableCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(CPU_COUNT(&set), 1);
    return std::max(static_cast<int>(std::thread::hardware_concurrency()),
                    1);
}

Shape
shapeOf(Workload w, int cpus)
{
    Shape s;
    s.cacheCapacity = ServeOptions().cacheCapacity;
    // Every workload runs on one CPU: on a small VM whose host is
    // shared, cross-CPU wake-ups, a second busy client and parallel
    // jobs all swing with the host's load.
    s.placement = Placement::OneCpu;
    switch (w) {
    case Workload::ColdUnique:
        // Two clients and two workers: the queue, the locks and the
        // interleaving of two clients are exercised.
        s.clients = std::clamp(cpus / 2, 1, 2);
        s.workers = s.clients;
        s.batch = 1024;
        break;
    case Workload::RespelledHits:
        // A hit runs on the client thread; the worker stays idle.
        s.clients = 1;
        s.workers = 1;
        s.batch = 1024;
        break;
    case Workload::PaperMatrix:
        s.clients = 0;
        s.workers = 0;
        s.cacheCapacity = 0;
        // One job; the traced run measures the runner's parallel
        // efficiency at matrixJobs().
        s.jobs = 1;
        s.batch = 13; // loops per runMatrix call: 1274 = 98 * 13
        break;
    }
    return s;
}

Streams::Streams(std::uint64_t seed)
    : seed_(seed), hot_(hotKernelTexts()),
      machine_(machineToText(MachineModel::clusteredRing(4)))
{
}

std::uint64_t
Streams::mix(std::uint64_t salt, long index) const
{
    Rng rng(seed_ ^ salt ^
            (0x9e3779b97f4a7c15ULL *
             (static_cast<std::uint64_t>(index) + 1)));
    return rng.next();
}

CompileRequest
Streams::request(std::string loopText) const
{
    CompileRequest req;
    req.loopText = std::move(loopText);
    req.machineText = machine_;
    req.options.scheduler = "dms";
    req.options.regalloc = true;
    req.options.verify = true;
    req.options.perf = true;
    req.options.codegen = false;
    return req;
}

Request
Streams::at(Workload w, long index) const
{
    Request r;
    r.index = index;
    Rng rng(mix(0, index));
    static const ZipfPicker zipf(namedKernels().size());
    switch (w) {
    case Workload::ColdUnique:
        r.req = request(coldLoopText(seed_, static_cast<int>(index)));
        break;
    case Workload::RespelledHits:
        r.hot = static_cast<int>(zipf.pick(rng));
        r.req = request(
            respell(hot_[static_cast<size_t>(r.hot)], rng, index));
        break;
    case Workload::PaperMatrix:
        DMS_ASSERT(false, "paper_matrix has no request stream");
        break;
    }
    return r;
}

std::vector<size_t>
Streams::passOrder(size_t n, long pass) const
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    Rng rng(mix(kPassSalt, pass));
    for (size_t i = n; i > 1; --i) {
        const size_t j =
            static_cast<size_t>(rng.range(0, static_cast<int>(i) - 1));
        std::swap(order[i - 1], order[j]);
    }
    return order;
}

Request
Streams::warmup(long index) const
{
    Request r;
    r.index = index;
    r.req = request(coldLoopText(kWarmupSeed, static_cast<int>(index)));
    return r;
}

std::string
respell(const std::string &canonical, Rng &rng, long index)
{
    const int shift = rng.range(1, 997);
    std::string out = strfmt("# respelled request %ld\n", index);
    for (const std::string &line : split(canonical, '\n')) {
        if (line.empty())
            continue;
        std::vector<std::string> f = split(line, ' ');
        const int ids = f[0] == "op" ? 1 : f[0] == "edge" ? 2 : 0;
        for (int k = 1; k <= ids; ++k) {
            int id = 0;
            parseInt(f[static_cast<size_t>(k)], id);
            f[static_cast<size_t>(k)] = std::to_string(id + shift);
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
matrixJobs(int cpus)
{
    return std::clamp(cpus, 1, 4);
}

RunnerOptions
matrixOptions(int jobs)
{
    RunnerOptions opts;
    opts.maxClusters = 10;
    opts.jobs = jobs;
    opts.progress = false;
    return opts;
}

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"rps", "1/s", "higher"},
        {"latency_p50_ms", "ms", "lower"},
        {"latency_p99_ms", "ms", "lower"},
        {"served_frac", "frac", "higher"},
        {"ii_over_mii", "ratio", "lower"},
        {"rel_cycles", "ratio", "lower"},
        {"cpu_ms_per_req", "ms", "lower"},
        {"peak_rss_mb", "MB", "lower"},
        {"setup_s", "s", "lower"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"workload.loop_parse_us", "us", "lower"},
        {"workload.loop_canon_us", "us", "lower"},
        {"workload.parse_lines_per_s", "lines/s", "higher"},
        {"machine.parse_us", "us", "lower"},
        {"machine.canon_us", "us", "lower"},
        {"serve.key_us", "us", "lower"},
        {"serve.alias_find_us", "us", "lower"},
        {"serve.validate_us", "us", "lower"},
        {"serve.cache_acquire_us", "us", "lower"},
        {"serve.alias_insert_us", "us", "lower"},
        {"serve.publish_us", "us", "lower"},
        {"serve.hit_rate", "frac", "higher"},
        {"serve.evictions_per_kreq", "1/kreq", "lower"},
        {"serve.misses_per_kreq", "1/kreq", "lower"},
        {"serve.queue_peak", "count", "lower"},
        {"serve.residual_us", "us", "lower"},
        {"net.req_encode_us", "us", "lower"},
        {"net.req_decode_us", "us", "lower"},
        {"net.result_encode_us", "us", "lower"},
        {"net.result_decode_us", "us", "lower"},
        {"net.bytes_in_per_req", "B", "lower"},
        {"net.bytes_out_per_req", "B", "lower"},
        {"net.overhead_us", "us", "lower"},
        {"pipeline.unroll_us", "us", "lower"},
        {"pipeline.prepass_us", "us", "lower"},
        {"pipeline.mii_us", "us", "lower"},
        {"pipeline.schedule_us", "us", "lower"},
        {"pipeline.regalloc_us", "us", "lower"},
        {"pipeline.verify_us", "us", "lower"},
        {"pipeline.perf_us", "us", "lower"},
        {"ir.ops_after_unroll", "count", "lower"},
        {"ir.copies_inserted", "count", "lower"},
        {"sched.attempts", "count", "lower"},
        {"sched.placements", "count", "lower"},
        {"sched.moves_inserted", "count", "lower"},
        {"sched.ii_minus_mii", "count", "lower"},
        {"sched.placements_per_s", "1/s", "higher"},
        {"regalloc.queues_required", "count", "lower"},
        {"eval.cell_p50_us", "us", "lower"},
        {"eval.cell_max_share", "frac", "lower"},
        {"eval.parallel_efficiency", "frac", "higher"},
        {"obs.latency_record_ns", "ns", "lower"},
        {"obs.metrics_snapshot_us", "us", "lower"},
        {"trace.overhead_frac", "frac", "lower"},
        {"trace.stage_sum_frac", "frac", "higher"},
        {"trace.spans", "count", "lower"},
    };
    return defs;
}

void
Report::set(const std::string &name, double value)
{
    for (Metric &m : metrics) {
        if (m.name == name) {
            m.value = value;
            return;
        }
    }
    metrics.push_back({name, value});
}

void
Report::note(std::string line)
{
    notes.push_back(std::move(line));
}

void
Report::fail(std::string why)
{
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
}

} // namespace perfbench
