/**
 * @file
 * dmsc — a miniature compiler driver around the DMS library,
 * running the staged pipeline (unroll -> prepass -> mii ->
 * schedule -> regalloc -> codegen -> verify -> perf) end to end.
 *
 * Usage:
 *   dmsc [options] <loop file | kernel:NAME>
 *
 * Options:
 *   --clusters N    ring size (default 4); 0 = unclustered IMS
 *   --copyfus N     copy units per cluster (default 1; at least 1)
 *   --machine FILE  machine description file (machine/desc.h
 *                   format; overrides --clusters/--copyfus)
 *   --sched NAME    registry scheduler (default: dms on clustered
 *                   machines, ims otherwise)
 *   --unroll N      unroll factor, 0..1024; 0 = automatic policy
 *                   (default)
 *   --emit          print the full pipelined code
 *   --dot           print the (transformed) DDG in Graphviz DOT
 *   --sim N         simulate N iterations against the reference
 *   --share         report queue sharing
 *
 * Integer values parse strictly: garbage, trailing junk, a negative
 * or out-of-range value is fatal and names the flag.
 *
 * Input is either a loop file in the workload/text format (the
 * same format the dmsd compile service accepts, any extension) or
 * one of the built-in kernels, e.g. "kernel:fir8".
 */

#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "codegen/emit.h"
#include "core/pipeline.h"
#include "ir/dot.h"
#include "ir/scc.h"
#include "machine/desc.h"
#include "regalloc/sharing.h"
#include "sim/exec.h"
#include "support/diag.h"
#include "support/strings.h"
#include "workload/text.h"

namespace {

using namespace dms;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open '%s'", path.c_str());
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace dms;
    int clusters = 4;
    int copy_fus = 1;
    int unroll = 0;
    long sim_iters = 0;
    bool emit = false;
    bool dot = false;
    bool share = false;
    std::string machine_file;
    std::string sched_name;
    std::string input;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("%s needs a value", a.c_str());
            return argv[++i];
        };
        auto nextInt = [&](int lo, int hi) {
            std::string v = next();
            int out = 0;
            if (!parseInt(v, out) || out < lo || out > hi)
                fatal("bad value '%s' for %s", v.c_str(),
                      a.c_str());
            return out;
        };
        if (a == "--clusters")
            clusters = nextInt(0, INT_MAX);
        else if (a == "--copyfus")
            copy_fus = nextInt(1, INT_MAX);
        else if (a == "--machine")
            machine_file = next();
        else if (a == "--sched")
            sched_name = next();
        else if (a == "--unroll")
            unroll = nextInt(0, 1024); // validateRequest's range
        else if (a == "--sim")
            sim_iters = nextInt(0, INT_MAX);
        else if (a == "--emit")
            emit = true;
        else if (a == "--dot")
            dot = true;
        else if (a == "--share")
            share = true;
        else if (!a.empty() && a[0] == '-')
            fatal("unknown option '%s'", a.c_str());
        else
            input = a;
    }
    if (input.empty())
        fatal("usage: dmsc [options] <loop file (workload/text "
              "format) | kernel:NAME>");

    // The CLI and the dmsd service share one loader: a loop file
    // in the workload/text format, or a built-in kernel by name.
    Loop loop;
    std::string load_error;
    if (!loadLoopSpec(input, loop, load_error))
        fatal("%s", load_error.c_str());
    std::printf("loop '%s': %d ops, trip %ld%s\n",
                loop.name.c_str(), loop.ddg.liveOpCount(),
                loop.tripCount,
                hasRecurrence(loop.ddg) ? ", has recurrence" : "");

    MachineModel machine =
        !machine_file.empty()
            ? machineFromTextOrDie(readFile(machine_file))
            : clusters > 0
                  ? MachineModel::clusteredRing(clusters, copy_fus)
                  : MachineModel::unclustered(1);
    std::printf("machine: %s\n", machine.describe().c_str());

    if (sched_name.empty())
        sched_name = machine.clustered() ? "dms" : "ims";

    PipelineOptions po;
    po.scheduler = sched_name;
    po.forceUnroll = unroll;
    po.regalloc = true;
    po.codegen = true;
    Pipeline pipeline(po);

    std::string stages;
    for (const std::string &s : pipeline.stageNames())
        stages += stages.empty() ? s : " -> " + s;
    std::printf("pipeline: %s (scheduler '%s')\n", stages.c_str(),
                sched_name.c_str());

    CompilationContext ctx;
    if (!pipeline.run(loop, machine, ctx))
        fatal("scheduler '%s' failed (MII %d)", sched_name.c_str(),
              ctx.mii);

    if (ctx.body.unrollFactor() > 1)
        std::printf("unrolled x%d (%d ops)\n",
                    ctx.body.unrollFactor(),
                    ctx.body.liveOpCount());
    if (ctx.prepass.copiesInserted > 0)
        std::printf("pre-pass: %d copies\n",
                    ctx.prepass.copiesInserted);
    std::printf("%s: II=%d (MII=%d), %d moves\n", sched_name.c_str(),
                ctx.result.sched.ii, ctx.result.sched.mii,
                ctx.result.sched.movesInserted);
    std::printf("SC=%d, %ld cycles for %ld iterations, useful IPC "
                "%.2f\n",
                ctx.perf.stageCount, ctx.perf.cycles,
                ctx.perf.iterations, ctx.perf.ipc);
    if (ctx.queuesValid) {
        std::printf("regalloc: %zu queues in %d files (%d storage "
                    "positions, max %d queues/file, max %d "
                    "queues/link)\n",
                    ctx.queues.lifetimes.size(),
                    ctx.queues.filesUsed, ctx.queues.totalStorage,
                    ctx.queues.maxQueuesPerFile,
                    ctx.queues.maxQueuesPerLink);
    }

    const Ddg &sched_ddg = ctx.scheduledDdg();
    const PartialSchedule &schedule = *ctx.result.sched.schedule;
    if (emit) {
        std::printf("\n%s",
                    emitPipelinedCode(sched_ddg, machine, ctx.kernel,
                                      ctx.queuesValid ? &ctx.queues
                                                      : nullptr)
                        .c_str());
    }
    if (dot)
        std::printf("\n%s", ddgToDot(sched_ddg).c_str());
    if (share) {
        if (!ctx.queuesValid)
            fatal("--share needs a queue-file machine");
        SharedAllocation sa =
            shareQueues(ctx.queues, sched_ddg, schedule);
        std::printf("\nqueues: %d before sharing, %d after "
                    "(%.0f%% fewer)\n",
                    sa.queuesBefore, sa.queuesAfter,
                    sa.reduction() * 100.0);
    }
    if (sim_iters > 0) {
        auto problems = simulateAndCheck(sched_ddg, machine,
                                         schedule, sim_iters);
        if (!problems.empty()) {
            for (const auto &p : problems)
                std::printf("SIM PROBLEM: %s\n", p.c_str());
            return 1;
        }
        std::printf("simulated %ld iterations: stored values match "
                    "the sequential reference\n",
                    sim_iters);
    }
    return 0;
}
