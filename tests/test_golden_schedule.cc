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
