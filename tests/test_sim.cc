/**
 * @file
 * End-to-end validation: the cycle-accurate simulator executes
 * every scheduler's output and the stored values must match the
 * sequential reference interpreter — across IMS, DMS, unrolling
 * and the copy pre-pass.
 */

#include <gtest/gtest.h>

#include "core/dms.h"
#include "ir/prepass.h"
#include "ir/unroll.h"
#include "sched/ims.h"
#include "sim/exec.h"
#include "sim/value.h"
#include "workload/kernels.h"

namespace dms {
namespace {

TEST(Value, MixIsDeterministicAndSpread)
{
    EXPECT_EQ(mix64(1, 2, 3), mix64(1, 2, 3));
    EXPECT_NE(mix64(1, 2, 3), mix64(1, 2, 4));
    EXPECT_NE(mix64(0), mix64(1));
}

TEST(Value, EvalOpSemantics)
{
    Operation add;
    add.opc = Opcode::Add;
    EXPECT_EQ(evalOp(add, 3, 4, 0), 7u);
    Operation sub;
    sub.opc = Opcode::Sub;
    EXPECT_EQ(evalOp(sub, 9, 4, 0), 5u);
    Operation mul;
    mul.opc = Opcode::Mul;
    EXPECT_EQ(evalOp(mul, 3, 4, 0), 12u);
    Operation divi;
    divi.opc = Opcode::Div;
    EXPECT_EQ(evalOp(divi, 12, 4, 0), 2u); // 12 / (4|1)=5 -> 2
    Operation cp;
    cp.opc = Opcode::Copy;
    EXPECT_EQ(evalOp(cp, 42, 0, 0), 42u);
    Operation cst;
    cst.opc = Opcode::Const;
    cst.literal = 99;
    EXPECT_EQ(evalOp(cst, 0, 0, 7), 99u);
}

TEST(Value, LoadDependsOnIterationAndOffset)
{
    Operation ld;
    ld.opc = Opcode::Load;
    ld.memStream = 2;
    ld.memOffset = 1;
    // a[i+1] at iter 3 == a[i] at iter 4.
    Operation ld0 = ld;
    ld0.memOffset = 0;
    EXPECT_EQ(evalOp(ld, 0, 0, 3), evalOp(ld0, 0, 0, 4));
}

TEST(Reference, DotProductMatchesHandComputation)
{
    Loop k = kernelDotProduct();
    StoreLog log = referenceExecute(k.ddg, 3);
    ASSERT_EQ(log.records.size(), 3u);

    // Recompute by hand: acc_i = acc_{i-1} + x_i * y_i.
    std::uint64_t acc = liveInValue(3, -1); // add op id 3, iter -1
    for (long i = 0; i < 3; ++i) {
        std::uint64_t x = loadValue(0, i, 0);
        std::uint64_t y = loadValue(1, i, 0);
        acc = acc + x * y;
        EXPECT_EQ(log.records[static_cast<size_t>(i)].value, acc)
            << "iteration " << i;
    }
}

TEST(Reference, StoreLogSortingAndTruncation)
{
    StoreLog log;
    log.records.push_back({2, 5, 1});
    log.records.push_back({1, 7, 2});
    log.records.push_back({1, 2, 3});
    log.sort();
    EXPECT_EQ(log.records[0].origStore, 1);
    EXPECT_EQ(log.records[0].origIter, 2);
    StoreLog cut = log.truncated(6);
    EXPECT_EQ(cut.records.size(), 2u);
}

TEST(Reference, CompareDetectsValueMismatch)
{
    StoreLog a;
    a.records.push_back({0, 0, 1});
    StoreLog b;
    b.records.push_back({0, 0, 2});
    EXPECT_FALSE(compareStoreLogs(a, b).empty());
    EXPECT_FALSE(compareStoreLogs(a, StoreLog{}).empty());
    EXPECT_TRUE(compareStoreLogs(a, a).empty());
}

class SimulateIms : public ::testing::TestWithParam<int>
{};

TEST_P(SimulateIms, MatchesReferenceOnAllKernels)
{
    int width = GetParam();
    for (const Loop &k : namedKernels()) {
        MachineModel m = MachineModel::unclustered(width);
        SchedOutcome out = scheduleIms(k.ddg, m);
        ASSERT_TRUE(out.ok) << k.name;
        auto problems =
            simulateAndCheck(k.ddg, m, *out.schedule, 40);
        EXPECT_TRUE(problems.empty())
            << k.name << " w" << width << ": "
            << (problems.empty() ? "" : problems[0]);
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, SimulateIms,
                         ::testing::Values(1, 2, 4, 8));

class SimulateDms : public ::testing::TestWithParam<int>
{};

TEST_P(SimulateDms, MatchesReferenceOnAllKernels)
{
    int clusters = GetParam();
    for (const Loop &k : namedKernels()) {
        MachineModel m = MachineModel::clusteredRing(clusters);
        Ddg body = k.ddg;
        singleUsePrepass(body, m.latencyOf(Opcode::Copy));
        DmsOutcome out = scheduleDms(body, m);
        ASSERT_TRUE(out.sched.ok) << k.name;
        auto problems = simulateAndCheck(*out.ddg, m,
                                         *out.sched.schedule, 40);
        EXPECT_TRUE(problems.empty())
            << k.name << " c" << clusters << ": "
            << (problems.empty() ? "" : problems[0]);
    }
}

INSTANTIATE_TEST_SUITE_P(Clusters, SimulateDms,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8, 10));

TEST(Simulate, UnrolledScheduleMatchesOriginalReference)
{
    for (const Loop &k : namedKernels()) {
        Ddg unrolled;
        unrollDdg(k.ddg, 2, unrolled);
        MachineModel m = MachineModel::clusteredRing(4);
        singleUsePrepass(unrolled, m.latencyOf(Opcode::Copy));
        DmsOutcome out = scheduleDms(unrolled, m);
        ASSERT_TRUE(out.sched.ok) << k.name;

        SimResult sim = simulateSchedule(*out.ddg, m,
                                         *out.sched.schedule, 15);
        ASSERT_TRUE(sim.ok) << k.name << ": " << sim.problems[0];
        // 15 unrolled iterations == 30 original iterations.
        StoreLog ref = referenceExecute(k.ddg, 30);
        auto problems = compareStoreLogs(ref, sim.log);
        EXPECT_TRUE(problems.empty())
            << k.name << ": "
            << (problems.empty() ? "" : problems[0]);
    }
}

TEST(Simulate, ReportsCycleCount)
{
    Loop k = kernelDaxpy();
    MachineModel m = MachineModel::unclustered(2);
    SchedOutcome out = scheduleIms(k.ddg, m);
    ASSERT_TRUE(out.ok);
    SimResult sim = simulateSchedule(k.ddg, m, *out.schedule, 25);
    ASSERT_TRUE(sim.ok);
    int sc = out.schedule->maxTime() / out.ii + 1;
    EXPECT_EQ(sim.cycles, (25 + sc - 1) * out.ii);
    EXPECT_GT(sim.maxQueueOccupancy, 0);
}

TEST(Simulate, QueueOccupancyBoundedByAllocation)
{
    // The simulator's peak in-flight token count can exceed the
    // per-lifetime FIFO depth sum only if bookkeeping is broken.
    Loop k = kernelFir8();
    MachineModel m = MachineModel::clusteredRing(3);
    Ddg body = k.ddg;
    singleUsePrepass(body, 1);
    DmsOutcome out = scheduleDms(body, m);
    ASSERT_TRUE(out.sched.ok);
    SimResult sim =
        simulateSchedule(*out.ddg, m, *out.sched.schedule, 30);
    ASSERT_TRUE(sim.ok);
    EXPECT_GT(sim.maxQueueOccupancy, 0);
}

TEST(Simulate, SingleIteration)
{
    Loop k = kernelComplexMultiply();
    MachineModel m = MachineModel::unclustered(3);
    SchedOutcome out = scheduleIms(k.ddg, m);
    ASSERT_TRUE(out.ok);
    auto problems = simulateAndCheck(k.ddg, m, *out.schedule, 1);
    EXPECT_TRUE(problems.empty());
}

} // namespace
} // namespace dms
