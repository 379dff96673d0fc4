/**
 * @file
 * PartialSchedule mechanics: placement, eviction, early starts,
 * slot search, and the forced-slot progress guarantee.
 */

#include <vector>

#include <gtest/gtest.h>

#include "sched/schedule.h"
#include "workload/kernels.h"

namespace dms {
namespace {

struct Fixture
{
    Fixture() : machine(MachineModel::clusteredRing(2))
    {
        LoopBuilder b;
        ld = b.load(0);
        ml = b.mul1(ld);
        ad = b.add1(ml);
        st = b.store(1, ad);
        ddg = b.take();
    }

    MachineModel machine;
    Ddg ddg;
    OpId ld, ml, ad, st;
};

TEST(PartialScheduleTest, PlaceAndQuery)
{
    Fixture f;
    PartialSchedule ps(f.ddg, f.machine, 2);
    EXPECT_FALSE(ps.isScheduled(f.ld));
    EXPECT_TRUE(ps.tryPlace(f.ld, 0, 0));
    EXPECT_TRUE(ps.isScheduled(f.ld));
    EXPECT_EQ(ps.timeOf(f.ld), 0);
    EXPECT_EQ(ps.clusterOf(f.ld), 0);
    EXPECT_EQ(ps.scheduledCount(), 1);
    EXPECT_EQ(ps.maxTime(), 0);
}

TEST(PartialScheduleTest, RowConflictRejected)
{
    Fixture f;
    PartialSchedule ps(f.ddg, f.machine, 2);
    EXPECT_TRUE(ps.tryPlace(f.ld, 0, 0));
    // st is also L/S class; row 0 mod 2 == row 2 mod 2.
    EXPECT_FALSE(ps.tryPlace(f.st, 2, 0));
    // Different row fine.
    EXPECT_TRUE(ps.tryPlace(f.st, 3, 0));
    // Other cluster fine too.
    ps.unschedule(f.st);
    EXPECT_TRUE(ps.tryPlace(f.st, 2, 1));
}

TEST(PartialScheduleTest, UnscheduleFreesSlot)
{
    Fixture f;
    PartialSchedule ps(f.ddg, f.machine, 2);
    EXPECT_TRUE(ps.tryPlace(f.ld, 0, 0));
    ps.unschedule(f.ld);
    EXPECT_FALSE(ps.isScheduled(f.ld));
    EXPECT_EQ(ps.scheduledCount(), 0);
    EXPECT_TRUE(ps.tryPlace(f.st, 0, 0));
}

TEST(PartialScheduleTest, EarlyStartFollowsLatencies)
{
    Fixture f;
    PartialSchedule ps(f.ddg, f.machine, 4);
    EXPECT_EQ(ps.earlyStart(f.ld), 0);
    ASSERT_TRUE(ps.tryPlace(f.ld, 1, 0));
    EXPECT_EQ(ps.earlyStart(f.ml), 3); // load latency 2
    ASSERT_TRUE(ps.tryPlace(f.ml, 3, 0));
    EXPECT_EQ(ps.earlyStart(f.ad), 5); // mul latency 2
}

TEST(PartialScheduleTest, EarlyStartWithDistanceCredit)
{
    // add self-loop d=1 at II=4: scheduled at t, next iteration
    // needs t+1-4 -> credit of 3 cycles.
    LoopBuilder b;
    OpId x = b.load(0);
    OpId acc = b.add1(x);
    EdgeId self = b.flow(acc, acc, 1, 1);
    b.store(1, acc);
    Ddg g = b.take();
    (void)self;
    MachineModel m = MachineModel::clusteredRing(1);
    PartialSchedule ps(g, m, 4);
    ASSERT_TRUE(ps.tryPlace(x, 0, 0));
    EXPECT_EQ(ps.earlyStart(acc), 2);
}

TEST(PartialScheduleTest, FindFreeSlotScansWindow)
{
    Fixture f;
    PartialSchedule ps(f.ddg, f.machine, 2);
    ASSERT_TRUE(ps.tryPlace(f.ld, 0, 0));
    // Window for st in cluster 0 starting at 0: row 0 busy, row 1
    // free -> slot 1.
    EXPECT_EQ(ps.findFreeSlot(f.st, 0, 0), 1);
    ASSERT_TRUE(ps.tryPlace(f.st, 1, 0));
    // Now both rows busy in cluster 0.
    EXPECT_EQ(ps.findFreeSlot(f.ml, 0, 0) != kUnscheduled, true)
        << "mul class has its own unit";
    // A third L/S op would find nothing in cluster 0:
    OpId extra = f.ddg.addOp(Opcode::Load);
    EXPECT_EQ(ps.findFreeSlot(extra, 0, 5), kUnscheduled);
    EXPECT_NE(ps.findFreeSlot(extra, 1, 5), kUnscheduled);
}

TEST(PartialScheduleTest, ForcedSlotMakesProgress)
{
    Fixture f;
    PartialSchedule ps(f.ddg, f.machine, 2);
    EXPECT_EQ(ps.forcedSlot(f.ld, 4), 4); // never placed: early
    ASSERT_TRUE(ps.tryPlace(f.ld, 4, 0));
    ps.unschedule(f.ld);
    // Placed before at 4: forced moves past it even if early says 4.
    EXPECT_EQ(ps.forcedSlot(f.ld, 4), 5);
    EXPECT_EQ(ps.forcedSlot(f.ld, 9), 9);
    EXPECT_EQ(ps.placementCount(f.ld), 1);
}

TEST(PartialScheduleTest, PlaceEvictingPrefersLowHeight)
{
    Fixture f;
    MachineModel wide = MachineModel::unclustered(2); // 2 L/S units
    PartialSchedule ps(f.ddg, wide, 2);
    Heights h(static_cast<size_t>(f.ddg.numOps()), 0);
    h[static_cast<size_t>(f.ld)] = 10;
    h[static_cast<size_t>(f.st)] = 1;

    ASSERT_TRUE(ps.tryPlace(f.ld, 0, 0));
    ASSERT_TRUE(ps.tryPlace(f.st, 2, 0)); // same row, instance 1

    OpId extra = f.ddg.addOp(Opcode::Load);
    std::vector<OpId> evicted;
    ps.placeEvicting(extra, 4, 0, h, evicted);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0], f.st); // lower height victim
    EXPECT_TRUE(ps.isScheduled(extra));
    EXPECT_TRUE(ps.isScheduled(f.ld));
    EXPECT_FALSE(ps.isScheduled(f.st));
}

TEST(PartialScheduleTest, PlaceEvictingNoEvictionWhenFree)
{
    Fixture f;
    PartialSchedule ps(f.ddg, f.machine, 2);
    Heights h(static_cast<size_t>(f.ddg.numOps()), 0);
    std::vector<OpId> evicted;
    ps.placeEvicting(f.ld, 1, 1, h, evicted);
    EXPECT_TRUE(evicted.empty());
    EXPECT_EQ(ps.timeOf(f.ld), 1);
    EXPECT_EQ(ps.clusterOf(f.ld), 1);
}

TEST(PartialScheduleTest, ViolatedSuccessors)
{
    Fixture f;
    PartialSchedule ps(f.ddg, f.machine, 2);
    ASSERT_TRUE(ps.tryPlace(f.ml, 2, 0));
    ASSERT_TRUE(ps.tryPlace(f.ld, 2, 0)); // ld -> ml needs +2
    std::vector<OpId> viol;
    ps.violatedSuccessors(f.ld, viol);
    ASSERT_EQ(viol.size(), 1u);
    EXPECT_EQ(viol[0], f.ml);

    ps.unschedule(f.ml);
    ASSERT_TRUE(ps.tryPlace(f.ml, 4, 0));
    ps.violatedSuccessors(f.ld, viol);
    EXPECT_TRUE(viol.empty());
}

TEST(PartialScheduleTest, GrowsWithDdg)
{
    Fixture f;
    PartialSchedule ps(f.ddg, f.machine, 2);
    OpId mv = f.ddg.addOp(Opcode::Move, OpOrigin::MoveOp);
    EXPECT_FALSE(ps.isScheduled(mv));
    EXPECT_TRUE(ps.tryPlace(mv, 0, 1)); // copy unit of cluster 1
    EXPECT_EQ(ps.timeOf(mv), 0);
}

TEST(PartialScheduleTest, MaxTimeTracksAll)
{
    Fixture f;
    PartialSchedule ps(f.ddg, f.machine, 3);
    EXPECT_EQ(ps.maxTime(), -1);
    ASSERT_TRUE(ps.tryPlace(f.ld, 0, 0));
    ASSERT_TRUE(ps.tryPlace(f.ml, 7, 1));
    EXPECT_EQ(ps.maxTime(), 7);
    ps.unschedule(f.ml);
    EXPECT_EQ(ps.maxTime(), 0);
}

} // namespace
} // namespace dms
