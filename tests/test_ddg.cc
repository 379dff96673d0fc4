/**
 * @file
 * Unit tests for the DDG: construction, mutation (the chain-splice
 * machinery DMS depends on), structural verification, and DOT
 * export.
 */

#include <gtest/gtest.h>

#include "ir/ddg.h"
#include "ir/dot.h"
#include "ir/verify.h"

namespace dms {
namespace {

TEST(Opcode, ClassesAndArity)
{
    EXPECT_EQ(fuClassOf(Opcode::Load), FuClass::LdSt);
    EXPECT_EQ(fuClassOf(Opcode::Store), FuClass::LdSt);
    EXPECT_EQ(fuClassOf(Opcode::Add), FuClass::Add);
    EXPECT_EQ(fuClassOf(Opcode::Sub), FuClass::Add);
    EXPECT_EQ(fuClassOf(Opcode::Const), FuClass::Add);
    EXPECT_EQ(fuClassOf(Opcode::Mul), FuClass::Mul);
    EXPECT_EQ(fuClassOf(Opcode::Div), FuClass::Mul);
    EXPECT_EQ(fuClassOf(Opcode::Copy), FuClass::Copy);
    EXPECT_EQ(fuClassOf(Opcode::Move), FuClass::Copy);

    EXPECT_EQ(opcodeArity(Opcode::Load), 0);
    EXPECT_EQ(opcodeArity(Opcode::Store), 1);
    EXPECT_EQ(opcodeArity(Opcode::Add), 2);
    EXPECT_EQ(opcodeArity(Opcode::Move), 1);
}

TEST(Opcode, UsefulnessMatchesPaper)
{
    // Copy units "do not perform any useful computation".
    EXPECT_FALSE(isUseful(Opcode::Copy));
    EXPECT_FALSE(isUseful(Opcode::Move));
    EXPECT_TRUE(isUseful(Opcode::Load));
    EXPECT_TRUE(isUseful(Opcode::Mul));
}

TEST(Opcode, ValueProduction)
{
    EXPECT_FALSE(producesValue(Opcode::Store));
    EXPECT_TRUE(producesValue(Opcode::Load));
    EXPECT_TRUE(producesValue(Opcode::Move));
}

TEST(LatencyModelTest, DefaultsAndOverride)
{
    LatencyModel lat;
    EXPECT_EQ(lat.of(Opcode::Load), 2);
    EXPECT_EQ(lat.of(Opcode::Add), 1);
    EXPECT_EQ(lat.of(Opcode::Div), 8);
    lat.set(Opcode::Add, 3);
    EXPECT_EQ(lat.of(Opcode::Add), 3);
}

Ddg
smallGraph()
{
    // load -> add -> store, plus add self-loop (distance 1).
    Ddg g;
    OpId ld = g.addOp(Opcode::Load);
    OpId add = g.addOp(Opcode::Add);
    OpId st = g.addOp(Opcode::Store);
    g.addEdge(ld, add, DepKind::Flow, 0, 2, 0);
    g.addEdge(add, add, DepKind::Flow, 1, 1, 1);
    g.addEdge(add, st, DepKind::Flow, 0, 1, 0);
    return g;
}

TEST(Ddg, ConstructionBasics)
{
    Ddg g = smallGraph();
    EXPECT_EQ(g.numOps(), 3);
    EXPECT_EQ(g.liveOpCount(), 3);
    EXPECT_EQ(g.numEdges(), 3);
    EXPECT_EQ(g.op(0).opc, Opcode::Load);
    EXPECT_EQ(g.op(0).origId, 0);
    EXPECT_EQ(g.opLabel(1), "op1:add");
    EXPECT_TRUE(verifyDdg(g).empty());
}

TEST(Ddg, AdjacencyLists)
{
    Ddg g = smallGraph();
    EXPECT_EQ(g.op(0).outs.size(), 1u);
    EXPECT_EQ(g.op(1).ins.size(), 2u); // load + self loop
    EXPECT_EQ(g.op(1).outs.size(), 2u);
    EXPECT_EQ(g.op(2).ins.size(), 1u);
}

TEST(Ddg, FlowFanoutAndInputs)
{
    Ddg g = smallGraph();
    EXPECT_EQ(g.flowFanout(0), 1);
    EXPECT_EQ(g.flowFanout(1), 2); // self + store
    auto ins = g.flowInputs(1);
    EXPECT_EQ(ins.size(), 2u);
}

TEST(Ddg, CountsByClass)
{
    Ddg g = smallGraph();
    auto counts = g.opCountByClass();
    EXPECT_EQ(counts[static_cast<int>(FuClass::LdSt)], 2);
    EXPECT_EQ(counts[static_cast<int>(FuClass::Add)], 1);
    EXPECT_EQ(counts[static_cast<int>(FuClass::Mul)], 0);
    EXPECT_EQ(g.usefulOpCount(), 3);
}

TEST(Ddg, RemoveEdgeUnlinks)
{
    Ddg g = smallGraph();
    g.removeEdge(0);
    EXPECT_FALSE(g.edgeLive(0));
    EXPECT_EQ(g.op(0).outs.size(), 0u);
    EXPECT_EQ(g.op(1).ins.size(), 1u);
    EXPECT_TRUE(verifyDdg(g).empty());
}

TEST(Ddg, RemoveOpRequiresNoEdges)
{
    Ddg g;
    OpId a = g.addOp(Opcode::Load);
    EXPECT_EQ(g.liveOpCount(), 1);
    g.removeOp(a);
    EXPECT_EQ(g.liveOpCount(), 0);
    EXPECT_FALSE(g.opLive(a));
}

TEST(Ddg, ReplacedEdgesAreInactive)
{
    Ddg g = smallGraph();
    EXPECT_TRUE(g.edgeActive(0));
    g.markReplaced(0);
    EXPECT_FALSE(g.edgeActive(0));
    EXPECT_TRUE(g.edgeLive(0));
    g.unmarkReplaced(0);
    EXPECT_TRUE(g.edgeActive(0));
}

TEST(Ddg, CopySemantics)
{
    Ddg g = smallGraph();
    Ddg copy = g; // per-II-attempt copy in DMS
    copy.markReplaced(0);
    EXPECT_TRUE(g.edgeActive(0));
    EXPECT_FALSE(copy.edgeActive(0));
    OpId mv = copy.addOp(Opcode::Move, OpOrigin::MoveOp);
    EXPECT_EQ(copy.numOps(), 4);
    EXPECT_EQ(g.numOps(), 3);
    EXPECT_EQ(copy.op(mv).origin, OpOrigin::MoveOp);
}

TEST(Ddg, ClearPoolsSlotsThatAddOpResets)
{
    Ddg g = smallGraph();
    g.op(0).memStream = 3;
    g.op(0).literal = 7;
    g.setUnrollFactor(2);
    g.clear();
    EXPECT_EQ(g.numOps(), 0);
    EXPECT_EQ(g.numEdges(), 0);
    EXPECT_EQ(g.liveOpCount(), 0);
    EXPECT_EQ(g.unrollFactor(), 1);

    // The reused slot starts from the defaults, adjacency emptied.
    OpId mv = g.addOp(Opcode::Move, OpOrigin::MoveOp);
    EXPECT_EQ(mv, 0);
    const Operation &o = g.op(mv);
    EXPECT_EQ(o.opc, Opcode::Move);
    EXPECT_EQ(o.origin, OpOrigin::MoveOp);
    EXPECT_EQ(o.origId, kInvalidOp);
    EXPECT_EQ(o.memStream, -1);
    EXPECT_EQ(o.literal, 0);
    EXPECT_FALSE(o.dead);
    EXPECT_TRUE(o.ins.empty());
    EXPECT_TRUE(o.outs.empty());

    // Copies see the live op only, never the pooled slots.
    Ddg copy = g;
    EXPECT_EQ(copy.numOps(), 1);
    copy = smallGraph();
    EXPECT_EQ(copy.numOps(), 3);
    copy = g;
    EXPECT_EQ(copy.numOps(), 1);
    EXPECT_EQ(copy.op(0).opc, Opcode::Move);
    EXPECT_TRUE(copy.op(0).outs.empty());

    // A move leaves the source an empty graph.
    Ddg moved = std::move(copy);
    EXPECT_EQ(moved.numOps(), 1);
    EXPECT_EQ(copy.numOps(), 0); // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(copy.liveOpCount(), 0);
}

TEST(Ddg, UsefulCountExcludesCopyAndMove)
{
    Ddg g = smallGraph();
    g.addOp(Opcode::Copy, OpOrigin::CopyOp);
    g.addOp(Opcode::Move, OpOrigin::MoveOp);
    EXPECT_EQ(g.liveOpCount(), 5);
    EXPECT_EQ(g.usefulOpCount(), 3);
}

TEST(DdgVerify, DetectsZeroDistanceCycle)
{
    Ddg g;
    OpId a = g.addOp(Opcode::Add);
    OpId b = g.addOp(Opcode::Add);
    g.addEdge(a, b, DepKind::Flow, 0, 1, 0);
    g.addEdge(b, a, DepKind::Flow, 0, 1, 0);
    auto problems = verifyDdg(g);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("zero-distance"), std::string::npos);
}

TEST(DdgVerify, AcceptsPositiveDistanceCycle)
{
    Ddg g;
    OpId a = g.addOp(Opcode::Add);
    OpId b = g.addOp(Opcode::Add);
    g.addEdge(a, b, DepKind::Flow, 0, 1, 0);
    g.addEdge(b, a, DepKind::Flow, 1, 1, 0);
    EXPECT_TRUE(verifyDdg(g).empty());
}

TEST(DdgVerify, DetectsDoubleFedSlot)
{
    Ddg g;
    OpId a = g.addOp(Opcode::Load);
    OpId b = g.addOp(Opcode::Load);
    OpId c = g.addOp(Opcode::Add);
    g.addEdge(a, c, DepKind::Flow, 0, 2, 0);
    g.addEdge(b, c, DepKind::Flow, 0, 2, 0); // same slot 0
    auto problems = verifyDdg(g);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("fed twice"), std::string::npos);
}

TEST(DdgVerify, DetectsSlotBeyondArity)
{
    Ddg g;
    OpId a = g.addOp(Opcode::Load);
    OpId st = g.addOp(Opcode::Store);
    g.addEdge(a, st, DepKind::Flow, 0, 2, 1); // store arity 1
    auto problems = verifyDdg(g);
    ASSERT_FALSE(problems.empty());
}

TEST(DdgVerify, FanoutBoundOption)
{
    Ddg g;
    OpId a = g.addOp(Opcode::Load);
    for (int i = 0; i < 3; ++i) {
        OpId s = g.addOp(Opcode::Store);
        g.addEdge(a, s, DepKind::Flow, 0, 2, 0);
    }
    EXPECT_TRUE(verifyDdg(g).empty());
    DdgVerifyOptions opts;
    opts.maxFlowFanout = 2;
    EXPECT_FALSE(verifyDdg(g, opts).empty());
}

TEST(TopoOrder, RespectsZeroDistanceEdges)
{
    Ddg g = smallGraph();
    auto order = topoOrderZeroDistance(g);
    ASSERT_EQ(order.size(), 3u);
    auto pos = [&](OpId id) {
        return std::find(order.begin(), order.end(), id) -
               order.begin();
    };
    EXPECT_LT(pos(0), pos(1));
    EXPECT_LT(pos(1), pos(2));
}

TEST(Dot, ExportMentionsOpsAndEdges)
{
    Ddg g = smallGraph();
    std::string dot = ddgToDot(g, "g");
    EXPECT_NE(dot.find("digraph g"), std::string::npos);
    EXPECT_NE(dot.find("op0:load"), std::string::npos);
    EXPECT_NE(dot.find("n1 -> n2"), std::string::npos);
    EXPECT_NE(dot.find("d=1"), std::string::npos);
}

TEST(DepKindNames, AllNamed)
{
    EXPECT_STREQ(depKindName(DepKind::Flow), "flow");
    EXPECT_STREQ(depKindName(DepKind::Anti), "anti");
    EXPECT_STREQ(depKindName(DepKind::Output), "output");
    EXPECT_STREQ(depKindName(DepKind::Memory), "memory");
}

} // namespace
} // namespace dms
