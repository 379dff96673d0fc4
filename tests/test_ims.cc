/**
 * @file
 * Iterative Modulo Scheduling: II optimality on known kernels,
 * legality everywhere, budget behaviour, and the fixed-assignment
 * variant the two-phase baseline uses.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "sched/ims.h"
#include "sched/mii.h"
#include "sched/verifier.h"
#include "workload/kernels.h"

namespace dms {
namespace {

TEST(Ims, DaxpyAchievesMiiAcrossWidths)
{
    Loop k = kernelDaxpy();
    for (int w : {1, 2, 4}) {
        MachineModel m = MachineModel::unclustered(w);
        SchedOutcome out = scheduleIms(k.ddg, m);
        ASSERT_TRUE(out.ok) << "width " << w;
        EXPECT_EQ(out.ii, out.mii) << "width " << w;
        checkSchedule(k.ddg, m, *out.schedule);
    }
}

TEST(Ims, DaxpyIiValues)
{
    // 2 loads + 1 store on w L/S units: ResMII = ceil(3/w).
    Loop k = kernelDaxpy();
    EXPECT_EQ(scheduleIms(k.ddg, MachineModel::unclustered(1)).ii, 3);
    EXPECT_EQ(scheduleIms(k.ddg, MachineModel::unclustered(2)).ii, 2);
    EXPECT_EQ(scheduleIms(k.ddg, MachineModel::unclustered(3)).ii, 1);
}

TEST(Ims, RecurrenceBoundsHold)
{
    Loop k = kernelHorner(); // RecMII 3
    MachineModel wide = MachineModel::unclustered(8);
    SchedOutcome out = scheduleIms(k.ddg, wide);
    ASSERT_TRUE(out.ok);
    EXPECT_EQ(out.recMii, 3);
    EXPECT_EQ(out.ii, 3);
    checkSchedule(k.ddg, wide, *out.schedule);
}

TEST(Ims, AllKernelsLegalOnAllWidths)
{
    for (const Loop &k : namedKernels()) {
        for (int w : {1, 2, 3, 5, 10}) {
            MachineModel m = MachineModel::unclustered(w);
            SchedOutcome out = scheduleIms(k.ddg, m);
            ASSERT_TRUE(out.ok) << k.name << " width " << w;
            EXPECT_GE(out.ii, out.mii);
            checkSchedule(k.ddg, m, *out.schedule);
        }
    }
}

TEST(Ims, IiNeverBelowMii)
{
    for (const Loop &k : namedKernels()) {
        MachineModel m = MachineModel::unclustered(2);
        SchedOutcome out = scheduleIms(k.ddg, m);
        ASSERT_TRUE(out.ok);
        EXPECT_GE(out.ii, std::max(resMii(k.ddg, m), recMii(k.ddg)))
            << k.name;
    }
}

TEST(Ims, SchedulesAreDeterministic)
{
    Loop k = kernelFir8();
    MachineModel m = MachineModel::unclustered(2);
    SchedOutcome a = scheduleIms(k.ddg, m);
    SchedOutcome b = scheduleIms(k.ddg, m);
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_EQ(a.ii, b.ii);
    for (OpId id = 0; id < k.ddg.numOps(); ++id) {
        EXPECT_EQ(a.schedule->timeOf(id), b.schedule->timeOf(id));
    }
}

TEST(Ims, TightBudgetMayCostIi)
{
    // With a budget of nearly zero the first II attempt fails and
    // II grows; the result must still be legal.
    Loop k = kernelFir8();
    MachineModel m = MachineModel::unclustered(1);
    SchedParams strict;
    strict.budgetRatio = 1;
    SchedOutcome out = scheduleIms(k.ddg, m, strict);
    ASSERT_TRUE(out.ok);
    checkSchedule(k.ddg, m, *out.schedule);

    SchedParams roomy;
    roomy.budgetRatio = 16;
    SchedOutcome better = scheduleIms(k.ddg, m, roomy);
    ASSERT_TRUE(better.ok);
    EXPECT_LE(better.ii, out.ii);
}

TEST(Ims, MaxIiCapReturnsFailure)
{
    Loop k = kernelFir8(); // MII 9 on width 1
    MachineModel m = MachineModel::unclustered(1);
    SchedParams p;
    p.maxII = 2; // below MII: no attempt can start
    SchedOutcome out = scheduleIms(k.ddg, m, p);
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.attempts, 0);
}

TEST(Ims, BudgetUsedReported)
{
    Loop k = kernelDotProduct();
    MachineModel m = MachineModel::unclustered(2);
    SchedOutcome out = scheduleIms(k.ddg, m);
    ASSERT_TRUE(out.ok);
    EXPECT_GE(out.budgetUsed, k.ddg.liveOpCount());
}

TEST(Ims, StagesOverlapIterations)
{
    // FIR on a narrow machine: the schedule must span multiple
    // stages (software pipelining actually happened).
    Loop k = kernelFir8();
    MachineModel m = MachineModel::unclustered(2);
    SchedOutcome out = scheduleIms(k.ddg, m);
    ASSERT_TRUE(out.ok);
    int sc = out.schedule->maxTime() / out.ii + 1;
    EXPECT_GE(sc, 2);
}

TEST(ImsFixed, RespectsAssignment)
{
    Loop k = kernelDaxpy();
    MachineModel m = MachineModel::clusteredRing(2);
    // Everything in cluster 1.
    std::vector<ClusterId> assign(
        static_cast<size_t>(k.ddg.numOps()), 1);
    SchedOutcome out = scheduleImsFixed(k.ddg, m, assign);
    ASSERT_TRUE(out.ok);
    for (OpId id = 0; id < k.ddg.numOps(); ++id)
        EXPECT_EQ(out.schedule->clusterOf(id), 1);
    checkSchedule(k.ddg, m, *out.schedule);
}

TEST(ImsFixed, SplitAssignmentUsesBothClusters)
{
    // daxpy: ld x (0), ld y (1), mul (2), add (3), st (4).
    Loop k = kernelDaxpy();
    MachineModel m = MachineModel::clusteredRing(2);
    std::vector<ClusterId> assign{0, 1, 0, 1, 1};
    SchedOutcome out = scheduleImsFixed(k.ddg, m, assign);
    ASSERT_TRUE(out.ok);
    checkSchedule(k.ddg, m, *out.schedule);
    EXPECT_EQ(out.schedule->clusterOf(0), 0);
    EXPECT_EQ(out.schedule->clusterOf(4), 1);
    // Two L/S units now: ResMII 2 for the three memory ops.
    EXPECT_LE(out.ii, 3);
}

TEST(Ims, UnclusteredIgnoresCommunication)
{
    // A deep chain schedules fine on one cluster (no comm rules).
    LoopBuilder b;
    OpId v = b.load(0);
    for (int i = 0; i < 12; ++i)
        v = b.add1(v);
    b.store(1, v);
    Ddg g = b.take();
    MachineModel m = MachineModel::unclustered(1);
    SchedOutcome out = scheduleIms(g, m);
    ASSERT_TRUE(out.ok);
    checkSchedule(g, m, *out.schedule);
}

TEST(DefaultMaxII, GrowsWithMii)
{
    EXPECT_GT(defaultMaxII(1), 1);
    EXPECT_GT(defaultMaxII(10), defaultMaxII(1));
}

} // namespace
} // namespace dms
