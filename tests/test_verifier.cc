/**
 * @file
 * The schedule verifier must catch every class of illegality it
 * claims to check: these tests construct broken schedules by hand.
 */

#include <gtest/gtest.h>

#include "sched/verifier.h"
#include "workload/kernels.h"

namespace dms {
namespace {

bool
mentions(const std::vector<std::string> &problems, const char *what)
{
    for (const auto &p : problems) {
        if (p.find(what) != std::string::npos)
            return true;
    }
    return false;
}

struct Fixture
{
    Fixture() : machine(MachineModel::clusteredRing(4))
    {
        LoopBuilder b;
        ld = b.load(0);
        ad = b.add1(ld);
        st = b.store(1, ad);
        ddg = b.take();
    }

    MachineModel machine;
    Ddg ddg;
    OpId ld, ad, st;
};

TEST(Verifier, AcceptsLegalSchedule)
{
    Fixture f;
    PartialSchedule ps(f.ddg, f.machine, 2);
    ASSERT_TRUE(ps.tryPlace(f.ld, 0, 0));
    ASSERT_TRUE(ps.tryPlace(f.ad, 2, 1));
    ASSERT_TRUE(ps.tryPlace(f.st, 3, 1));
    EXPECT_TRUE(verifySchedule(f.ddg, f.machine, ps).empty());
}

TEST(Verifier, FlagsIncomplete)
{
    Fixture f;
    PartialSchedule ps(f.ddg, f.machine, 2);
    ASSERT_TRUE(ps.tryPlace(f.ld, 0, 0));
    auto problems = verifySchedule(f.ddg, f.machine, ps);
    EXPECT_TRUE(mentions(problems, "not scheduled"));

    VerifyOptions opts;
    opts.requireComplete = false;
    EXPECT_TRUE(
        verifySchedule(f.ddg, f.machine, ps, opts).empty());
}

TEST(Verifier, FlagsDependenceViolation)
{
    Fixture f;
    PartialSchedule ps(f.ddg, f.machine, 2);
    ASSERT_TRUE(ps.tryPlace(f.ld, 0, 0));
    ASSERT_TRUE(ps.tryPlace(f.ad, 1, 0)); // needs load+2
    ASSERT_TRUE(ps.tryPlace(f.st, 5, 0)); // row 1: no L/S clash
    auto problems = verifySchedule(f.ddg, f.machine, ps);
    EXPECT_TRUE(mentions(problems, "violated"));
}

TEST(Verifier, DistanceCreditsAllowEarlyConsumer)
{
    // Consumer before producer is fine when carried: t(dst) >=
    // t(src) + lat - II*d.
    LoopBuilder b;
    OpId x = b.load(0);
    OpId a = b.add1(x);
    b.flow(a, a, 1, 1);
    b.store(1, a);
    Ddg g = b.take();
    MachineModel m = MachineModel::clusteredRing(1);
    PartialSchedule ps(g, m, 3);
    ASSERT_TRUE(ps.tryPlace(0, 0, 0)); // load
    ASSERT_TRUE(ps.tryPlace(1, 2, 0)); // add; self dep 2>=2+1-3 ok
    ASSERT_TRUE(ps.tryPlace(2, 4, 0)); // store (row 1, no clash)
    EXPECT_TRUE(verifySchedule(g, m, ps).empty());
}

TEST(Verifier, FlagsCommunicationConflict)
{
    Fixture f;
    PartialSchedule ps(f.ddg, f.machine, 2);
    ASSERT_TRUE(ps.tryPlace(f.ld, 0, 0));
    ASSERT_TRUE(ps.tryPlace(f.ad, 2, 2)); // distance 2 on a 4-ring
    ASSERT_TRUE(ps.tryPlace(f.st, 3, 2));
    auto problems = verifySchedule(f.ddg, f.machine, ps);
    EXPECT_TRUE(mentions(problems, "spans distance"));

    VerifyOptions opts;
    opts.checkCommunication = false;
    EXPECT_TRUE(
        verifySchedule(f.ddg, f.machine, ps, opts).empty());
}

TEST(Verifier, UnclusteredHasNoCommRules)
{
    Loop k = kernelDaxpy();
    MachineModel m = MachineModel::unclustered(4);
    PartialSchedule ps(k.ddg, m, 1);
    ASSERT_TRUE(ps.tryPlace(0, 0, 0));
    ASSERT_TRUE(ps.tryPlace(1, 0, 0));
    ASSERT_TRUE(ps.tryPlace(2, 2, 0));
    ASSERT_TRUE(ps.tryPlace(3, 4, 0));
    ASSERT_TRUE(ps.tryPlace(4, 5, 0));
    EXPECT_TRUE(verifySchedule(k.ddg, m, ps).empty());
}

TEST(Verifier, FlagsReplacedEdgeWithoutChain)
{
    Fixture f;
    PartialSchedule ps(f.ddg, f.machine, 2);
    f.ddg.markReplaced(0); // ld -> ad hidden, no moves added
    ASSERT_TRUE(ps.tryPlace(f.ld, 0, 0));
    ASSERT_TRUE(ps.tryPlace(f.ad, 2, 2));
    ASSERT_TRUE(ps.tryPlace(f.st, 3, 2));
    auto problems = verifySchedule(f.ddg, f.machine, ps);
    EXPECT_TRUE(mentions(problems, "no live move chain"));
}

TEST(Verifier, AcceptsProperChain)
{
    Fixture f;
    // Move forwarding ld(c0) -> ad(c2) via c1.
    f.ddg.markReplaced(0);
    OpId mv = f.ddg.addOp(Opcode::Move, OpOrigin::MoveOp);
    f.ddg.op(mv).origId = f.ddg.op(f.ld).origId;
    f.ddg.addEdge(f.ld, mv, DepKind::Flow, 0, 2, 0);
    f.ddg.addEdge(mv, f.ad, DepKind::Flow, 0, 1, 0);

    PartialSchedule ps(f.ddg, f.machine, 2);
    ASSERT_TRUE(ps.tryPlace(f.ld, 0, 0));
    ASSERT_TRUE(ps.tryPlace(mv, 2, 1));
    ASSERT_TRUE(ps.tryPlace(f.ad, 3, 2));
    ASSERT_TRUE(ps.tryPlace(f.st, 4, 2));
    EXPECT_TRUE(verifySchedule(f.ddg, f.machine, ps).empty());
}

TEST(Verifier, FlagsMoveHopNotOne)
{
    Fixture f;
    f.ddg.markReplaced(0);
    OpId mv = f.ddg.addOp(Opcode::Move, OpOrigin::MoveOp);
    f.ddg.addEdge(f.ld, mv, DepKind::Flow, 0, 2, 0);
    f.ddg.addEdge(mv, f.ad, DepKind::Flow, 0, 1, 0);

    PartialSchedule ps(f.ddg, f.machine, 2);
    ASSERT_TRUE(ps.tryPlace(f.ld, 0, 0));
    ASSERT_TRUE(ps.tryPlace(mv, 2, 0)); // same cluster as producer!
    ASSERT_TRUE(ps.tryPlace(f.ad, 3, 1));
    ASSERT_TRUE(ps.tryPlace(f.st, 4, 1));
    auto problems = verifySchedule(f.ddg, f.machine, ps);
    EXPECT_TRUE(mentions(problems, "not one hop"));
}

TEST(Verifier, FlagsMoveWithWrongDegree)
{
    Fixture f;
    OpId mv = f.ddg.addOp(Opcode::Move, OpOrigin::MoveOp);
    // No flow edges at all.
    PartialSchedule ps(f.ddg, f.machine, 2);
    ASSERT_TRUE(ps.tryPlace(f.ld, 0, 0));
    ASSERT_TRUE(ps.tryPlace(f.ad, 2, 1));
    ASSERT_TRUE(ps.tryPlace(f.st, 3, 1));
    ASSERT_TRUE(ps.tryPlace(mv, 0, 2));
    auto problems = verifySchedule(f.ddg, f.machine, ps);
    EXPECT_TRUE(mentions(problems, "flow ins"));
}

TEST(Verifier, ChecksReservationAgreement)
{
    // Legal placements always agree with the table (the structure
    // enforces it); spot-check the bookkeeping on a real schedule.
    Fixture f;
    PartialSchedule ps(f.ddg, f.machine, 2);
    ASSERT_TRUE(ps.tryPlace(f.ld, 0, 0));
    ASSERT_TRUE(ps.tryPlace(f.ad, 2, 0));
    ASSERT_TRUE(ps.tryPlace(f.st, 3, 0));
    const Placement &p = ps.placement(f.ld);
    EXPECT_EQ(ps.reservations().at(p.cluster, FuClass::LdSt,
                                   p.fuInstance, 0),
              f.ld);
    EXPECT_TRUE(verifySchedule(f.ddg, f.machine, ps).empty());
}

TEST(Verifier, FlagsSharedSlot)
{
    // Retyping the placed add as a load moves it into the L/S class
    // at row 0 of c0, the slot the real load already holds.
    Fixture f;
    PartialSchedule ps(f.ddg, f.machine, 2);
    ASSERT_TRUE(ps.tryPlace(f.ld, 0, 0));
    ASSERT_TRUE(ps.tryPlace(f.ad, 2, 0));
    ASSERT_TRUE(ps.tryPlace(f.st, 3, 0));
    f.ddg.op(f.ad).opc = Opcode::Load;
    auto problems = verifySchedule(f.ddg, f.machine, ps);
    EXPECT_TRUE(mentions(problems,
                         "op1:load and op0:load share slot "
                         "(c0,LS,0,row0)"));
    EXPECT_TRUE(mentions(problems, "reservation table holds"));
}

TEST(Verifier, CheckScheduleDiesOnIllegal)
{
    Fixture f;
    PartialSchedule ps(f.ddg, f.machine, 2);
    EXPECT_DEATH(checkSchedule(f.ddg, f.machine, ps),
                 "illegal schedule");
}

} // namespace
} // namespace dms
