/**
 * @file
 * SCC detection and MII bounds (ResMII / RecMII) against
 * hand-computed values.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "ir/scc.h"
#include "machine/machine.h"
#include "sched/mii.h"
#include "workload/kernels.h"
#include "workload/suite.h"

namespace dms {
namespace {

TEST(Scc, AcyclicGraphHasTrivialSccs)
{
    LoopBuilder b;
    OpId x = b.load(0);
    OpId y = b.mul1(x);
    b.store(1, y);
    Ddg g = b.take();
    std::vector<size_t> sizes;
    forEachScc(g, [&](const OpId *, size_t n) { sizes.push_back(n); });
    EXPECT_EQ(sizes, std::vector<size_t>(3, 1));
    EXPECT_FALSE(hasRecurrence(g));
}

TEST(Scc, SelfLoopIsRecurrence)
{
    LoopBuilder b;
    OpId x = b.load(0);
    OpId acc = b.add1(x);
    b.flow(acc, acc, 1, 1);
    b.store(1, acc);
    Ddg g = b.take();
    EXPECT_TRUE(hasRecurrence(g));
}

TEST(Scc, TwoOpCycleDetected)
{
    LoopBuilder b;
    OpId x = b.load(0);
    OpId a = b.add1(x);
    OpId m = b.mul1(a);
    b.flow(m, a, 1, 1);
    b.store(1, m);
    Ddg g = b.take();
    std::vector<OpId> big;
    forEachScc(g, [&](const OpId *members, size_t n) {
        if (n > big.size())
            big.assign(members, members + n);
    });
    EXPECT_EQ(big, (std::vector<OpId>{a, m}));
    EXPECT_TRUE(hasRecurrence(g));
}

TEST(Scc, ReplacedEdgesDoNotParticipate)
{
    LoopBuilder b;
    OpId x = b.load(0);
    OpId a = b.add1(x);
    EdgeId back = b.flow(a, a, 1, 1);
    b.store(1, a);
    Ddg g = b.take();
    g.markReplaced(back);
    EXPECT_FALSE(hasRecurrence(g));
}

TEST(ResMii, CeilingOfClassPressure)
{
    // 4 loads+stores on 1 L/S unit -> ResMII 4.
    LoopBuilder b;
    OpId l1 = b.load(0);
    OpId l2 = b.load(1);
    OpId s = b.add(l1, l2);
    b.store(2, s);
    b.store(3, s);
    Ddg g = b.take();
    EXPECT_EQ(resMii(g, MachineModel::clusteredRing(1)), 4);
    EXPECT_EQ(resMii(g, MachineModel::clusteredRing(2)), 2);
    EXPECT_EQ(resMii(g, MachineModel::clusteredRing(4)), 1);
    EXPECT_EQ(resMii(g, MachineModel::unclustered(2)), 2);
}

TEST(ResMii, CopyOpsPressCopyUnits)
{
    LoopBuilder b;
    OpId x = b.load(0);
    b.store(1, x);
    Ddg g = b.take();
    OpId c1 = g.addOp(Opcode::Copy, OpOrigin::CopyOp);
    OpId c2 = g.addOp(Opcode::Copy, OpOrigin::CopyOp);
    OpId c3 = g.addOp(Opcode::Copy, OpOrigin::CopyOp);
    g.addEdge(x, c1, DepKind::Flow, 0, 2, 0);
    g.addEdge(c1, c2, DepKind::Flow, 0, 1, 0);
    g.addEdge(c2, c3, DepKind::Flow, 0, 1, 0);
    // 3 copies / 1 copy unit = 3.
    EXPECT_EQ(resMii(g, MachineModel::clusteredRing(1)), 3);
    // ...or 2 copy units per cluster = ceil(3/2) = 2 (A2 ablation).
    EXPECT_EQ(resMii(g, MachineModel::clusteredRing(1, 2)), 2);
}

TEST(RecMii, AcyclicIsOne)
{
    EXPECT_EQ(recMii(kernelDaxpy().ddg), 1);
    EXPECT_EQ(recMii(kernelFir8().ddg), 1);
}

TEST(RecMii, AccumulatorSelfLoop)
{
    // add (lat 1) self-loop distance 1 -> RecMII = 1.
    EXPECT_EQ(recMii(kernelDotProduct().ddg), 1);
}

TEST(RecMii, LatencyOverDistanceRatio)
{
    // mul (lat 2) -> add (lat 1) -> mul, back distance 1:
    // cycle latency 3, distance 1 -> RecMII 3.
    LoopBuilder b;
    OpId x = b.load(0);
    OpId m = b.mul1(x);
    OpId a = b.add1(m);
    b.flow(a, m, 1, 1);
    b.store(1, a);
    Ddg g = b.take();
    EXPECT_EQ(recMii(g), 3);
}

TEST(RecMii, DistanceTwoHalvesTheBound)
{
    LoopBuilder b;
    OpId x = b.load(0);
    OpId m = b.mul1(x);
    OpId a = b.add1(m);
    b.flow(a, m, 1, 2); // same cycle, distance 2
    b.store(1, a);
    Ddg g = b.take();
    EXPECT_EQ(recMii(g), 2); // ceil(3/2)
}

TEST(RecMii, HornerIsMulPlusAdd)
{
    // mul(2) + add(1) over distance 1 -> 3.
    EXPECT_EQ(recMii(kernelHorner().ddg), 3);
}

TEST(RecMii, LongLatencyDivRecurrence)
{
    // div(8) + sub(1) over distance 2 -> ceil(9/2) = 5.
    EXPECT_EQ(recMii(kernelMixedLongLatency().ddg), 5);
}

TEST(RecMii, TakesMaxOverCycles)
{
    LoopBuilder b;
    OpId x = b.load(0);
    OpId a = b.add1(x); // fast accumulator: 1/1
    b.flow(a, a, 1, 1);
    OpId m = b.mul1(x); // slow 2-op cycle: (2+1)/1 = 3
    OpId c = b.add1(m);
    b.flow(c, m, 1, 1);
    b.store(1, a);
    b.store(2, c);
    Ddg g = b.take();
    EXPECT_EQ(recMii(g), 3);
}

TEST(RecMii, MemoryEdgeCyclesCount)
{
    // store -> load memory dep (dist 1) closing a flow path:
    // load(2) -> add(1) -> store, mem lat 1 => cycle lat 4, d 1.
    LoopBuilder b;
    OpId ld = b.load(0);
    OpId a = b.add1(ld);
    OpId st = b.store(0, a);
    b.memDep(st, ld, 1, 1);
    Ddg g = b.take();
    EXPECT_EQ(recMii(g), 4);
}

TEST(RecMii, RecurrenceBoundMatchesTwoPassForm)
{
    const auto two_pass = [](const Ddg &g) {
        return hasRecurrence(g) ? recMii(g) : 0;
    };
    for (const Loop &loop : standardSuite())
        EXPECT_EQ(recurrenceBound(loop.ddg), two_pass(loop.ddg))
            << loop.name;
    for (const Loop &k : namedKernels())
        EXPECT_EQ(recurrenceBound(k.ddg), two_pass(k.ddg)) << k.name;

    LoopBuilder self;
    OpId x = self.load(0);
    OpId acc = self.add1(x);
    self.flow(acc, acc, 1, 1);
    self.store(1, acc);
    Ddg self_loop = self.take();
    EXPECT_EQ(recurrenceBound(self_loop), 1);
    EXPECT_EQ(recurrenceBound(self_loop), two_pass(self_loop));

    // A cycle of zero-latency memory edges still counts as a
    // recurrence: RecMII floors at 1, not 0.
    LoopBuilder zero;
    OpId l0 = zero.load(0);
    OpId l1 = zero.load(1);
    zero.memDep(l0, l1, 0, 0);
    zero.memDep(l1, l0, 1, 0);
    Ddg zero_cycle = zero.take();
    EXPECT_EQ(recurrenceBound(zero_cycle), 1);
    EXPECT_EQ(recurrenceBound(zero_cycle), two_pass(zero_cycle));

    const Ddg acyclic = kernelDaxpy().ddg;
    EXPECT_EQ(recurrenceBound(acyclic), 0);
    EXPECT_EQ(recurrenceBound(acyclic), two_pass(acyclic));
}

TEST(MinII, MaxOfBounds)
{
    Loop horner = kernelHorner(); // RecMII 3, tiny ResMII
    MachineModel m1 = MachineModel::clusteredRing(1);
    EXPECT_EQ(std::max(resMii(horner.ddg, m1), recMii(horner.ddg)),
              3);

    Loop fir = kernelFir8(); // 8 loads+1 store on 1 L/S: ResMII 9
    EXPECT_EQ(std::max(resMii(fir.ddg, m1), recMii(fir.ddg)), 9);
    MachineModel m3 = MachineModel::clusteredRing(3);
    EXPECT_EQ(std::max(resMii(fir.ddg, m3), recMii(fir.ddg)), 3);
}

TEST(KernelFacts, RecurrenceFlagsMatch)
{
    EXPECT_FALSE(hasRecurrence(kernelDaxpy().ddg));
    EXPECT_TRUE(hasRecurrence(kernelDotProduct().ddg));
    EXPECT_TRUE(hasRecurrence(kernelIir2().ddg));
    EXPECT_FALSE(hasRecurrence(kernelComplexMultiply().ddg));
    EXPECT_FALSE(hasRecurrence(kernelColorConvert().ddg));
    EXPECT_TRUE(hasRecurrence(kernelPrefixSum().ddg));
    EXPECT_FALSE(hasRecurrence(kernelFftButterfly().ddg));
}

TEST(KernelFacts, AllSixteenBuildAndVerify)
{
    auto kernels = namedKernels();
    EXPECT_EQ(kernels.size(), 16u);
    for (const Loop &k : kernels) {
        EXPECT_GT(k.ddg.liveOpCount(), 0) << k.name;
        EXPECT_GT(k.tripCount, 0) << k.name;
    }
}

} // namespace
} // namespace dms
