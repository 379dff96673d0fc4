/**
 * @file
 * Golden-schedule regression tests: hash every placement decision of
 * the schedulers over a deterministic synthetic suite and compare
 * against constants captured from the pre-optimization scheduler.
 * Any change to pick order, slot search, eviction choice, chain
 * planning or move splicing shifts the hash, so "bit-identical
 * schedules" is checked directly rather than via aggregate cycles.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/dms.h"
#include "core/pipeline.h"
#include "ir/prepass.h"
#include "machine/desc.h"
#include "sched/ims.h"
#include "workload/suite.h"
#include "workload/unroll_policy.h"

namespace {

using namespace dms;

/** FNV-1a over a stream of 64-bit words. */
class Fnv
{
  public:
    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Mix one schedule: II, moves, and every live placement. */
void
mixSchedule(Fnv &fnv, const Ddg &ddg, const SchedOutcome &out)
{
    fnv.mix(out.ok ? 1 : 0);
    if (!out.ok)
        return;
    fnv.mix(static_cast<std::uint64_t>(out.ii));
    fnv.mix(static_cast<std::uint64_t>(out.movesInserted));
    const PartialSchedule &ps = *out.schedule;
    for (OpId id = 0; id < ddg.numOps(); ++id) {
        if (!ddg.opLive(id))
            continue;
        fnv.mix(static_cast<std::uint64_t>(id));
        fnv.mix(static_cast<std::uint64_t>(ddg.op(id).opc));
        if (!ps.isScheduled(id)) {
            fnv.mix(0xdeadULL);
            continue;
        }
        const Placement &p = ps.placement(id);
        fnv.mix(static_cast<std::uint64_t>(p.time));
        fnv.mix(static_cast<std::uint64_t>(p.cluster));
        fnv.mix(static_cast<std::uint64_t>(p.fuInstance));
    }
}

/** Mix the whole body graph: every op and edge field, in id order. */
void
mixBody(Fnv &fnv, const Ddg &g)
{
    fnv.mix(static_cast<std::uint64_t>(g.unrollFactor()));
    fnv.mix(static_cast<std::uint64_t>(g.numOps()));
    fnv.mix(static_cast<std::uint64_t>(g.numEdges()));
    fnv.mix(static_cast<std::uint64_t>(g.liveOpCount()));
    for (OpId id = 0; id < g.numOps(); ++id) {
        const Operation &o = g.op(id);
        fnv.mix(static_cast<std::uint64_t>(o.opc));
        fnv.mix(static_cast<std::uint64_t>(o.origin));
        fnv.mix(o.dead ? 1 : 0);
        fnv.mix(static_cast<std::uint64_t>(o.origId));
        fnv.mix(static_cast<std::uint64_t>(o.iterOffset));
        fnv.mix(static_cast<std::uint64_t>(o.memStream));
        fnv.mix(static_cast<std::uint64_t>(o.memOffset));
        fnv.mix(static_cast<std::uint64_t>(o.literal));
        fnv.mix(o.ins.size());
        for (EdgeId e : o.ins)
            fnv.mix(static_cast<std::uint64_t>(e));
        fnv.mix(o.outs.size());
        for (EdgeId e : o.outs)
            fnv.mix(static_cast<std::uint64_t>(e));
    }
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &ed = g.edge(e);
        fnv.mix(static_cast<std::uint64_t>(ed.src));
        fnv.mix(static_cast<std::uint64_t>(ed.dst));
        fnv.mix(static_cast<std::uint64_t>(ed.kind));
        fnv.mix(static_cast<std::uint64_t>(ed.distance));
        fnv.mix(static_cast<std::uint64_t>(ed.latency));
        fnv.mix(static_cast<std::uint64_t>(ed.operandIndex));
        fnv.mix((ed.dead ? 1u : 0u) | (ed.replaced ? 2u : 0u));
    }
}

/** The suite both golden tests walk: synth loops plus kernels. */
std::vector<Loop>
goldenSuite()
{
    return standardSuite(kSuiteSeed, 60);
}

} // namespace

TEST(GoldenSchedule, DmsPlacementsUnchanged)
{
    Fnv fnv;
    for (const Loop &loop : goldenSuite()) {
        for (int clusters : {2, 4, 8}) {
            MachineModel machine =
                MachineModel::clusteredRing(clusters);
            Ddg body = applyUnrollPolicy(loop.ddg, machine);
            singleUsePrepass(body,
                             machine.latencyOf(Opcode::Copy));
            DmsOutcome out = scheduleDms(body, machine);
            fnv.mix(static_cast<std::uint64_t>(clusters));
            mixSchedule(fnv, out.sched.ok ? *out.ddg : body,
                        out.sched);
        }
    }
    // Captured from the seed scheduler (pre hot-path rework); any
    // mismatch means a placement decision changed somewhere.
    EXPECT_EQ(fnv.value(), 0x097286f7e5ec3f7eULL)
        << "DMS golden hash changed: 0x" << std::hex << fnv.value();
}

TEST(GoldenSchedule, DmsPlacementsUnchangedOffRing)
{
    // examples/machines/{mesh2x3,xbar6}.machine plus a 3x3 mesh:
    // the affinity ranking and chain routes on non-ring distances.
    const char *const kMachines[] = {
        "clusters 6\ntopology mesh 2x3\nregfile queues\n"
        "fus ldst=1 add=1 mul=1 copy=1\n",
        "clusters 6\ntopology crossbar\nregfile queues\n"
        "fus ldst=1 add=1 mul=1 copy=1\n",
        "clusters 9\ntopology mesh 3x3\nregfile queues\n"
        "fus ldst=1 add=1 mul=1 copy=1\n",
    };
    std::vector<MachineModel> machines;
    for (const char *text : kMachines)
        machines.push_back(machineFromTextOrDie(text));

    Fnv fnv;
    for (const Loop &loop : goldenSuite()) {
        for (const MachineModel &machine : machines) {
            Ddg body = applyUnrollPolicy(loop.ddg, machine);
            singleUsePrepass(body,
                             machine.latencyOf(Opcode::Copy));
            DmsOutcome out = scheduleDms(body, machine);
            fnv.mix(static_cast<std::uint64_t>(machine.numClusters()));
            mixSchedule(fnv, out.sched.ok ? *out.ddg : body,
                        out.sched);
        }
    }
    // Captured while DMS still kept incremental affinity rows; the
    // clustersByAffinity recompute must place identically.
    EXPECT_EQ(fnv.value(), 0xe3abe4cd6929aa2fULL)
        << "DMS off-ring golden hash changed: 0x" << std::hex
        << fnv.value();
}

TEST(GoldenSchedule, ImsPlacementsUnchanged)
{
    Fnv fnv;
    for (const Loop &loop : goldenSuite()) {
        for (int width : {1, 4}) {
            MachineModel machine = MachineModel::unclustered(width);
            Ddg body = applyUnrollPolicy(loop.ddg, machine);
            SchedOutcome out = scheduleIms(body, machine);
            fnv.mix(static_cast<std::uint64_t>(width));
            mixSchedule(fnv, body, out);
        }
    }
    EXPECT_EQ(fnv.value(), 0x02bcf559ea65ca60ULL)
        << "IMS golden hash changed: 0x" << std::hex << fnv.value();
}

TEST(GoldenSchedule, PipelineBodiesUnchanged)
{
    // One context for every cell, as a runMatrix worker reuses it:
    // whatever body the previous cell left behind, the unroll and
    // prepass stages must build the same graph into ctx.body.
    PipelineOptions ims_opts;
    ims_opts.scheduler = "ims";
    ims_opts.regalloc = true;
    PipelineOptions dms_opts;
    dms_opts.scheduler = "dms";
    dms_opts.regalloc = true;
    PipelineOptions forced_opts = dms_opts;
    forced_opts.forceUnroll = 3;
    const Pipeline ims(ims_opts);
    const Pipeline dms(dms_opts);
    const Pipeline forced(forced_opts);

    const std::vector<Loop> suite = goldenSuite();
    CompilationContext ctx;
    Fnv fnv;
    for (int c = 1; c <= 10; ++c) {
        const MachineModel flat = MachineModel::unclustered(c);
        const MachineModel ring = MachineModel::clusteredRing(c);
        for (const Loop &loop : suite) {
            const auto cell = [&](const Pipeline &pipeline,
                                  const MachineModel &machine) {
                pipeline.run(loop, machine, ctx);
                fnv.mix(static_cast<std::uint64_t>(c));
                mixBody(fnv, ctx.body);
                fnv.mix(static_cast<std::uint64_t>(
                    ctx.prepass.copiesInserted));
                fnv.mix(static_cast<std::uint64_t>(
                    ctx.prepass.opsRewritten));
                fnv.mix(static_cast<std::uint64_t>(ctx.resMii));
                fnv.mix(static_cast<std::uint64_t>(ctx.recMii));
            };
            cell(ims, flat);
            cell(dms, ring);
            if (c == 4)
                cell(forced, ring);
        }
    }
    EXPECT_EQ(fnv.value(), 0x61e1edcda8b46578ULL)
        << "pipeline body hash changed: 0x" << std::hex
        << fnv.value();
}
