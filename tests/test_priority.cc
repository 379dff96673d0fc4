/**
 * @file
 * Height-ladder correctness: the incremental table must be
 * bit-identical to a full recompute at every rung (the delta-height
 * fuzz oracle), divergence below RecMII must be a recoverable
 * failure rather than a panic, and the DMS II ladder's placements
 * and attempt/budget accounting are pinned to a recorded value.
 */

#include <cstdint>

#include <gtest/gtest.h>

#include "core/dms.h"
#include "ir/prepass.h"
#include "sched/mii.h"
#include "sched/priority.h"
#include "support/rng.h"
#include "workload/kernels.h"
#include "workload/synth.h"
#include "workload/unroll_policy.h"

namespace {

using namespace dms;

/** Randomize edge latencies so loop-carried edges exercise negative
 *  modulo weights (latency - II * distance < 0) as well as large
 *  positive ones. */
void
perturbLatencies(Ddg &ddg, Rng &rng)
{
    for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
        if (!ddg.edgeLive(e))
            continue;
        Edge &ed = ddg.edge(e);
        ed.latency = ed.distance > 0 ? rng.range(0, 6)
                                     : rng.range(1, 5);
    }
}

TEST(HeightLadder, DeltaEqualsFullOverFuzzedLadders)
{
    Rng rng(0x1adde2ULL);
    int laddersWithAffected = 0;
    for (const Loop &loop : synthesizeSuite(0xfee1500dULL, 40)) {
        Ddg body = loop.ddg;
        perturbLatencies(body, rng);
        const int base = std::max(1, recMii(body));
        const int rungs = rng.range(3, 9);

        HeightLadder ladder;
        for (int ii = base; ii < base + rungs; ++ii) {
            ASSERT_TRUE(ladder.ensure(body, ii));
            // Same-II repeat must reuse the table verbatim.
            const long reuses = ladder.verbatimReuses();
            ASSERT_TRUE(ladder.ensure(body, ii));
            EXPECT_EQ(ladder.verbatimReuses(), reuses + 1);

            EXPECT_EQ(ladder.heights(), computeHeights(body, ii))
                << "delta heights diverged from full recompute at II "
                << ii;
        }
        EXPECT_EQ(ladder.fullRelaxations(), 1);
        EXPECT_EQ(ladder.deltaRelaxations(), rungs - 1);
        if (ladder.affectedOps() > 0)
            ++laddersWithAffected;
    }
    // The suite must actually exercise the delta path: most synth
    // loops carry a recurrence or a loop-carried memory edge.
    EXPECT_GT(laddersWithAffected, 10);
}

TEST(HeightLadder, AcyclicBodyHasEmptyAffectedSet)
{
    // No loop-carried edge anywhere: every height is II-independent
    // and stepping the ladder must touch nothing.
    LoopBuilder b;
    OpId ld = b.load(0);
    OpId ml = b.mul1(ld);
    b.store(1, b.add1(ml));
    Ddg body = b.take();

    HeightLadder ladder;
    ASSERT_TRUE(ladder.ensure(body, 1));
    EXPECT_EQ(ladder.affectedOps(), 0);
    ASSERT_TRUE(ladder.ensure(body, 2));
    EXPECT_EQ(ladder.heights(), computeHeights(body, 2));
}

TEST(HeightLadder, RecoversAfterDivergence)
{
    // acc = acc * x + y, a two-op recurrence: RecMII is the cycle's
    // latency sum, well above 1.
    LoopBuilder b;
    OpId ld = b.load(0);
    OpId ml = b.mul1(ld);
    OpId ad = b.add1(ml);
    b.flow(ad, ml, 1, 1);
    b.store(1, ad);
    Ddg body = b.take();
    const int rec = recMii(body);
    ASSERT_GT(rec, 1);

    HeightLadder ladder;
    EXPECT_FALSE(ladder.ensure(body, rec - 1));
    // Climb past RecMII: the invalidated table must rebuild fully.
    ASSERT_TRUE(ladder.ensure(body, rec));
    EXPECT_EQ(ladder.heights(), computeHeights(body, rec));
    ASSERT_TRUE(ladder.ensure(body, rec + 1));
    EXPECT_EQ(ladder.heights(), computeHeights(body, rec + 1));
}

TEST(Priority, TryComputeHeightsFailsBelowRecMii)
{
    for (const Loop &loop : namedKernels()) {
        const int rec = recMii(loop.ddg);
        Heights h;
        if (rec > 1) {
            EXPECT_FALSE(tryComputeHeights(loop.ddg, rec - 1, h))
                << loop.name << " converged below RecMII";
        }
        ASSERT_TRUE(tryComputeHeights(loop.ddg, rec, h))
            << loop.name << " diverged at RecMII";
        EXPECT_EQ(h, computeHeights(loop.ddg, rec));
    }
}

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

/** Hash every placement plus the attempt/budget accounting. */
std::uint64_t
ladderFingerprint()
{
    Fnv fnv;
    for (const Loop &loop : namedKernels()) {
        for (int clusters : {2, 4, 8}) {
            MachineModel machine =
                MachineModel::clusteredRing(clusters);
            Ddg body = applyUnrollPolicy(loop.ddg, machine);
            singleUsePrepass(body,
                             machine.latencyOf(Opcode::Copy));
            DmsOutcome out = scheduleDms(body, machine);

            fnv.mix(static_cast<std::uint64_t>(clusters));
            fnv.mix(out.sched.ok ? 1 : 0);
            fnv.mix(static_cast<std::uint64_t>(out.sched.attempts));
            fnv.mix(
                static_cast<std::uint64_t>(out.sched.budgetUsed));
            if (!out.sched.ok)
                continue;
            fnv.mix(static_cast<std::uint64_t>(out.sched.ii));
            fnv.mix(static_cast<std::uint64_t>(
                out.sched.movesInserted));
            const Ddg &g = *out.ddg;
            const PartialSchedule &ps = *out.sched.schedule;
            for (OpId id = 0; id < g.numOps(); ++id) {
                if (!g.opLive(id) || !ps.isScheduled(id))
                    continue;
                const Placement &p = ps.placement(id);
                fnv.mix(static_cast<std::uint64_t>(id));
                fnv.mix(static_cast<std::uint64_t>(p.time));
                fnv.mix(static_cast<std::uint64_t>(p.cluster));
                fnv.mix(static_cast<std::uint64_t>(p.fuInstance));
            }
        }
    }
    return fnv.value();
}

TEST(DmsLadder, AccountingPinned)
{
    // The golden FNV hashes cover placements only; this pin also
    // covers how many (II, restart) attempts the ladder took and
    // the scheduling steps it spent getting there.
    EXPECT_EQ(ladderFingerprint(), 0x1e95b28fd1aec949ULL);
}

} // namespace
