/**
 * @file
 * Scheduler hot-path microbenchmark: single-thread throughput of the
 * inner placement loop (the fig5 per-cell path). Bodies are unrolled
 * and pre-passed once outside the timer; the timed region is pure
 * scheduleDms / scheduleIms over the synthetic suite. Emits
 * BENCH_sched_hotpath.json with placements/sec (scheduling steps,
 * i.e. budgetUsed) and attempts/sec so the perf trajectory of the
 * scheduler core is machine-readable across PRs.
 *
 * The report-only `stages` block times the pipeline stages around
 * the scheduler over the same problems: unroll (factor choice plus
 * building into one reused Ddg), prepass (DMS problems only; the
 * pipeline runs it on queue machines), mii and verify, in
 * microseconds per problem, fastest rep. It has no gate.
 *
 * Knobs: DMS_SUITE_COUNT (default 200 synthetic loops; the named
 * kernels bring the suite to 216), DMS_HOTPATH_REPS (default 3
 * timed repetitions; the fastest rep is reported).
 *
 * Regression gate: when DMS_HOTPATH_BASELINE names a previous
 * BENCH_sched_hotpath.json, the run fails (exit 1) if either
 * scheduler's placements_per_sec drops more than
 * DMS_HOTPATH_MAX_DROP percent (default 15) below the baseline.
 * A baseline recorded at another suite_size or reps measured a
 * different workload, so that also fails (exit 1, before timing)
 * and names both configs. CI's perf gate runs the merge-base and
 * the head with the same knobs.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/dms.h"
#include "eval/runner.h"
#include "ir/prepass.h"
#include "ir/unroll.h"
#include "sched/ims.h"
#include "sched/mii.h"
#include "sched/verifier.h"
#include "support/diag.h"
#include "support/strings.h"
#include "workload/suite.h"
#include "workload/unroll_policy.h"

namespace {

using namespace dms;

/** One pre-processed scheduling problem. */
struct Prepared
{
    const Loop *loop = nullptr; ///< the source of @c body
    Ddg body;
    int clusters = 0; ///< ring size, or width for unclustered
    bool clustered = false;
};

struct Throughput
{
    double seconds = 0;     ///< fastest rep wall time
    long placements = 0;    ///< budgetUsed per rep
    long attempts = 0;      ///< II/restart attempts per rep
    long scheduled = 0;     ///< loops that reached a schedule

    double
    placementsPerSec() const
    {
        return seconds > 0 ? placements / seconds : 0;
    }

    double
    attemptsPerSec() const
    {
        return seconds > 0 ? attempts / seconds : 0;
    }
};

Throughput
timeReps(const std::vector<Prepared> &work, int reps)
{
    Throughput best;
    for (int r = 0; r < reps; ++r) {
        Throughput t;
        auto t0 = std::chrono::steady_clock::now();
        for (const Prepared &p : work) {
            if (p.clustered) {
                MachineModel m =
                    MachineModel::clusteredRing(p.clusters);
                DmsOutcome out = scheduleDms(p.body, m);
                t.placements += out.sched.budgetUsed;
                t.attempts += out.sched.attempts;
                t.scheduled += out.sched.ok ? 1 : 0;
            } else {
                MachineModel m =
                    MachineModel::unclustered(p.clusters);
                SchedOutcome out = scheduleIms(p.body, m);
                t.placements += out.budgetUsed;
                t.attempts += out.attempts;
                t.scheduled += out.ok ? 1 : 0;
            }
        }
        auto t1 = std::chrono::steady_clock::now();
        t.seconds = std::chrono::duration<double>(t1 - t0).count();
        if (r == 0 || t.seconds < best.seconds) {
            long sched = best.scheduled;
            best = t;
            if (r > 0 && t.scheduled != sched)
                fatal("hot-path reps diverged (%ld vs %ld loops "
                      "scheduled)", t.scheduled, sched);
        }
    }
    return best;
}

/**
 * Extract the top-level integer field @p key ("suite_size",
 * "reps") from a baseline JSON; -1 when absent.
 */
long
baselineConfig(const std::string &json, const char *key)
{
    std::string field = strfmt("\"%s\":", key);
    size_t at = json.find(field);
    if (at == std::string::npos)
        return -1;
    return std::strtol(json.c_str() + at + field.size(), nullptr, 10);
}

/**
 * A baseline speaks only for the workload it measured. Returns
 * false (after an error line naming both configs) when its
 * suite_size or reps differ from this run's @p loops and @p reps;
 * @p count is this run's DMS_SUITE_COUNT.
 */
bool
baselineConfigMatches(const std::string &json, const char *path,
                      long loops, int count, int reps)
{
    const long base_loops = baselineConfig(json, "suite_size");
    const long base_reps = baselineConfig(json, "reps");
    if (base_loops == loops && base_reps == reps)
        return true;
    // The suite is the synthetic loops plus the named kernels;
    // DMS_SUITE_COUNT counts the former.
    const long kernels = loops - count;
    std::fprintf(stderr,
                 "FAIL: baseline %s measured %ld loops, %ld reps; "
                 "this run is %ld loops, %d reps. Rerun with "
                 "DMS_SUITE_COUNT=%ld DMS_HOTPATH_REPS=%ld to "
                 "compare.\n",
                 path, base_loops, base_reps, loops, reps,
                 base_loops - kernels, base_reps);
    return false;
}

/**
 * Extract <object_key>.placements_per_sec from a baseline JSON
 * (string scan; the file is our own single-line emission). Returns
 * a negative value when the key is absent.
 */
double
baselineRate(const std::string &json, const char *object_key)
{
    std::string object = strfmt("\"%s\":{", object_key);
    size_t at = json.find(object);
    if (at == std::string::npos)
        return -1.0;
    const char *field = "\"placements_per_sec\":";
    size_t val = json.find(field, at);
    if (val == std::string::npos)
        return -1.0;
    return std::strtod(json.c_str() + val + std::strlen(field),
                       nullptr);
}

int
maxDropPercentFromEnv()
{
    const char *s = std::getenv("DMS_HOTPATH_MAX_DROP");
    if (s == nullptr)
        return 15;
    int v = 0;
    if (!parseInt(s, v) || v >= 100) {
        warn("DMS_HOTPATH_MAX_DROP='%s' is not a percentage below "
             "100; using 15", s);
        return 15;
    }
    return v;
}

/**
 * Compare one measured rate against the baseline file. Returns
 * false (after an error line) on a drop beyond the tolerance.
 */
bool
gateAgainstBaseline(const char *key, double measured,
                    const std::string &baseline_json, int max_drop)
{
    double base = baselineRate(baseline_json, key);
    if (base <= 0) {
        warn("baseline has no %s placements_per_sec; skipping gate",
             key);
        return true;
    }
    double floor = base * (100 - max_drop) / 100.0;
    if (measured < floor) {
        std::fprintf(stderr,
                     "FAIL: %s placements_per_sec %.0f is more "
                     "than %d%% below baseline %.0f (floor %.0f)\n",
                     key, measured, max_drop, base, floor);
        return false;
    }
    std::printf("gate: %s %.0f placements/s vs baseline %.0f "
                "(floor %.0f) ok\n", key, measured, base, floor);
    return true;
}

/** Microseconds per problem of each stage around the scheduler. */
struct StageCost
{
    double unroll = 0;
    double prepass = 0;
    double mii = 0;
    double verify = 0;
};

/**
 * Time the stages the pipeline runs around the scheduler over
 * @p work: unroll (factor choice plus unrolling into one reused
 * Ddg, as a compilation context does), the prepass on clustered
 * problems, mii, and verify against a schedule found once up
 * front. Each stage reports its fastest rep.
 */
StageCost
timeStages(const std::vector<Prepared> &work, int reps)
{
    using Clock = std::chrono::steady_clock;
    std::vector<MachineModel> machines;
    std::vector<DmsOutcome> outcomes;
    machines.reserve(work.size());
    outcomes.reserve(work.size());
    for (const Prepared &p : work) {
        machines.push_back(p.clustered
                               ? MachineModel::clusteredRing(p.clusters)
                               : MachineModel::unclustered(p.clusters));
        DmsOutcome out;
        if (p.clustered)
            out = scheduleDms(p.body, machines.back());
        else
            out.sched = scheduleIms(p.body, machines.back());
        if (!out.sched.ok)
            fatal("stages: a hot-path problem did not schedule");
        outcomes.push_back(std::move(out));
    }

    const auto since = [](Clock::time_point &t0) {
        const Clock::time_point t1 = Clock::now();
        const double s = std::chrono::duration<double>(t1 - t0).count();
        t0 = t1;
        return s;
    };
    StageCost best;
    Ddg body;
    for (int r = 0; r < reps; ++r) {
        StageCost t;
        for (size_t i = 0; i < work.size(); ++i) {
            const Prepared &p = work[i];
            const MachineModel &m = machines[i];
            Clock::time_point t0 = Clock::now();
            unrollDdg(p.loop->ddg, chooseUnrollFactor(p.loop->ddg, m),
                      body);
            t.unroll += since(t0);
            if (p.clustered) {
                singleUsePrepass(body, m.latencyOf(Opcode::Copy));
                t.prepass += since(t0);
            }
            resMii(body, m);
            recMii(body);
            t.mii += since(t0);
            const DmsOutcome &out = outcomes[i];
            if (!verifySchedule(p.clustered ? *out.ddg : p.body, m,
                                *out.sched.schedule)
                     .empty())
                fatal("stages: a hot-path schedule failed to verify");
            t.verify += since(t0);
        }
        if (r == 0) {
            best = t;
        } else {
            best.unroll = std::min(best.unroll, t.unroll);
            best.prepass = std::min(best.prepass, t.prepass);
            best.mii = std::min(best.mii, t.mii);
            best.verify = std::min(best.verify, t.verify);
        }
    }
    const double per = work.empty() ? 0 : 1e6 / work.size();
    best.unroll *= per;
    best.prepass *= per;
    best.mii *= per;
    best.verify *= per;
    return best;
}

void
appendThroughput(std::string &out, const char *key,
                 const Throughput &t)
{
    out += strfmt("\"%s\":{\"seconds\":%.6f,\"placements\":%ld,"
                  "\"attempts\":%ld,\"scheduled\":%ld,"
                  "\"placements_per_sec\":%.1f,"
                  "\"attempts_per_sec\":%.1f}",
                  key, t.seconds, t.placements, t.attempts,
                  t.scheduled, t.placementsPerSec(),
                  t.attemptsPerSec());
}

} // namespace

int
main()
{
    using namespace dms;
    const int count = suiteCountFromEnv(200);
    const int reps = envInt("DMS_HOTPATH_REPS", 3);

    // Read the baseline before anything writes the output file —
    // CI points DMS_HOTPATH_BASELINE at the checked-in JSON, which
    // this run will overwrite in place.
    std::string baseline_json;
    const char *baseline_path = std::getenv("DMS_HOTPATH_BASELINE");
    if (baseline_path != nullptr) {
        std::ifstream in(baseline_path);
        if (!in) {
            warn("cannot read baseline '%s'; gate disabled",
                 baseline_path);
            baseline_path = nullptr;
        } else {
            std::stringstream ss;
            ss << in.rdbuf();
            baseline_json = ss.str();
        }
    }

    std::vector<Loop> suite = standardSuite(kSuiteSeed, count);
    std::printf("sched_hotpath: %zu loops, %d reps\n", suite.size(),
                reps);
    if (baseline_path != nullptr &&
        !baselineConfigMatches(baseline_json, baseline_path,
                               static_cast<long>(suite.size()),
                               count, reps))
        return 1;

    // Pre-process outside the timer: the timed region is the
    // scheduler core only, exactly what this PR optimizes.
    std::vector<Prepared> dms_work;
    std::vector<Prepared> ims_work;
    for (const Loop &loop : suite) {
        for (int clusters : {4, 8}) {
            Prepared p;
            p.loop = &loop;
            MachineModel m = MachineModel::clusteredRing(clusters);
            p.body = applyUnrollPolicy(loop.ddg, m);
            singleUsePrepass(p.body, m.latencyOf(Opcode::Copy));
            p.clusters = clusters;
            p.clustered = true;
            dms_work.push_back(std::move(p));
        }
        Prepared p;
        p.loop = &loop;
        MachineModel m = MachineModel::unclustered(4);
        p.body = applyUnrollPolicy(loop.ddg, m);
        p.clusters = 4;
        p.clustered = false;
        ims_work.push_back(std::move(p));
    }

    Throughput dms_t = timeReps(dms_work, reps);
    Throughput ims_t = timeReps(ims_work, reps);

    std::printf("dms: %.3f s, %.0f placements/s, %.0f attempts/s\n",
                dms_t.seconds, dms_t.placementsPerSec(),
                dms_t.attemptsPerSec());
    std::printf("ims: %.3f s, %.0f placements/s, %.0f attempts/s\n",
                ims_t.seconds, ims_t.placementsPerSec(),
                ims_t.attemptsPerSec());

    // Stages sub-block: the pipeline stages around the scheduler.
    const StageCost dms_stages = timeStages(dms_work, reps);
    const StageCost ims_stages = timeStages(ims_work, reps);
    std::printf("stages (us/problem): dms unroll %.2f prepass %.2f "
                "mii %.2f verify %.2f; ims unroll %.2f mii %.2f "
                "verify %.2f\n",
                dms_stages.unroll, dms_stages.prepass, dms_stages.mii,
                dms_stages.verify, ims_stages.unroll, ims_stages.mii,
                ims_stages.verify);

    std::string json = "{";
    json += "\"bench\":\"sched_hotpath\",";
    json += strfmt("\"suite_size\":%zu,", suite.size());
    json += strfmt("\"reps\":%d,", reps);
    json += strfmt("\"dms_problems\":%zu,", dms_work.size());
    json += strfmt("\"ims_problems\":%zu,", ims_work.size());
    appendThroughput(json, "dms", dms_t);
    json += ",";
    appendThroughput(json, "ims", ims_t);
    json += strfmt(
        ",\"stages\":{\"dms\":{\"unroll_us\":%.3f,\"prepass_us\":%.3f,"
        "\"mii_us\":%.3f,\"verify_us\":%.3f},\"ims\":{\"unroll_us\":%.3f,"
        "\"mii_us\":%.3f,\"verify_us\":%.3f}}",
        dms_stages.unroll, dms_stages.prepass, dms_stages.mii,
        dms_stages.verify, ims_stages.unroll, ims_stages.mii,
        ims_stages.verify);
    json += "}";

    const char *path = "BENCH_sched_hotpath.json";
    std::FILE *f = std::fopen(path, "w");
    if (f == nullptr) {
        warn("cannot write %s", path);
        return 1;
    }
    std::fputs(json.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    inform("wrote %s", path);

    if (baseline_path != nullptr) {
        const int max_drop = maxDropPercentFromEnv();
        bool ok = gateAgainstBaseline("dms", dms_t.placementsPerSec(),
                                      baseline_json, max_drop);
        ok &= gateAgainstBaseline("ims", ims_t.placementsPerSec(),
                                  baseline_json, max_drop);
        if (!ok)
            return 1;
    }
    return 0;
}
