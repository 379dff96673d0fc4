/**
 * @file
 * Loop unrolling: distance re-wiring, semantics preservation
 * against the reference interpreter, and the unroll policy.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "ir/scc.h"
#include "ir/unroll.h"
#include "ir/verify.h"
#include "sched/mii.h"
#include "sim/reference.h"
#include "workload/kernels.h"
#include "workload/unroll_policy.h"

namespace dms {
namespace {

TEST(Unroll, FactorOneIsIdentityShape)
{
    Loop k = kernelDaxpy();
    Ddg u;
    unrollDdg(k.ddg, 1, u);
    EXPECT_EQ(u.liveOpCount(), k.ddg.liveOpCount());
    EXPECT_EQ(u.unrollFactor(), 1);
}

TEST(Unroll, CopiesOpsAndEdges)
{
    Loop k = kernelDaxpy();
    Ddg u;
    unrollDdg(k.ddg, 3, u);
    EXPECT_EQ(u.liveOpCount(), 3 * k.ddg.liveOpCount());
    EXPECT_EQ(u.unrollFactor(), 3);
    EXPECT_TRUE(verifyDdg(u).empty());
}

TEST(Unroll, RecordsOriginalIdentity)
{
    Loop k = kernelDaxpy();
    Ddg u;
    unrollDdg(k.ddg, 2, u);
    int offsets[2] = {0, 0};
    for (OpId id = 0; id < u.numOps(); ++id) {
        ASSERT_GE(u.op(id).origId, 0);
        ASSERT_LT(u.op(id).origId, k.ddg.numOps());
        ++offsets[u.op(id).iterOffset];
    }
    EXPECT_EQ(offsets[0], k.ddg.liveOpCount());
    EXPECT_EQ(offsets[1], k.ddg.liveOpCount());
}

TEST(Unroll, DistanceOneRecurrenceRewiring)
{
    // acc self-loop d=1, unroll 2: copy1 <- copy0 (d=0),
    // copy0 <- copy1 (d=1).
    Loop k = kernelDotProduct();
    Ddg u;
    unrollDdg(k.ddg, 2, u);
    int d0 = 0;
    int d1 = 0;
    for (EdgeId e = 0; e < u.numEdges(); ++e) {
        const Edge &ed = u.edge(e);
        const Operation &src = u.op(ed.src);
        const Operation &dst = u.op(ed.dst);
        if (src.origId == dst.origId && src.opc == Opcode::Add) {
            // the accumulator chain
            if (ed.distance == 0)
                ++d0;
            else if (ed.distance == 1)
                ++d1;
        }
    }
    EXPECT_EQ(d0, 1);
    EXPECT_EQ(d1, 1);
    EXPECT_TRUE(hasRecurrence(u));
}

TEST(Unroll, RecMiiScalesWithFactor)
{
    Loop k = kernelHorner(); // RecMII 3
    for (int f : {2, 3, 4}) {
        Ddg u;
        unrollDdg(k.ddg, f, u);
        EXPECT_EQ(recMii(u), 3 * f) << "factor " << f;
    }
}

TEST(Unroll, DistanceTwoSplitsAcrossCopies)
{
    // d=2 self-loop unrolled by 2: each copy gets d=1 self edge.
    LoopBuilder b;
    OpId x = b.load(0);
    OpId a = b.add1(x);
    b.flow(a, a, 1, 2);
    b.store(1, a);
    Ddg g = b.take();
    Ddg u;
    unrollDdg(g, 2, u);
    int self_d1 = 0;
    for (EdgeId e = 0; e < u.numEdges(); ++e) {
        const Edge &ed = u.edge(e);
        if (ed.src == ed.dst) {
            EXPECT_EQ(ed.distance, 1);
            ++self_d1;
        }
    }
    EXPECT_EQ(self_d1, 2);
}

class UnrollSemantics : public ::testing::TestWithParam<int>
{};

TEST_P(UnrollSemantics, PreservesStoredValues)
{
    const int factor = GetParam();
    for (const Loop &k : namedKernels()) {
        long orig_iters = 24; // divisible by 2,3,4,6,8
        StoreLog ref = referenceExecute(k.ddg, orig_iters);

        Ddg u;
        unrollDdg(k.ddg, factor, u);
        StoreLog unrolled =
            referenceExecute(u, orig_iters / factor);

        auto problems = compareStoreLogs(ref, unrolled);
        EXPECT_TRUE(problems.empty())
            << k.name << " x" << factor << ": "
            << (problems.empty() ? "" : problems[0]);
    }
}

INSTANTIATE_TEST_SUITE_P(Factors, UnrollSemantics,
                         ::testing::Values(2, 3, 4, 6, 8));

TEST(UnrollPolicy, NarrowMachineKeepsBody)
{
    Loop k = kernelLivermoreHydro(); // 9 ops
    MachineModel m = MachineModel::clusteredRing(1);
    EXPECT_EQ(chooseUnrollFactor(k.ddg, m), 1);
}

TEST(UnrollPolicy, WideMachineUnrolls)
{
    Loop k = kernelDaxpy(); // 5 ops, no recurrence
    MachineModel wide = MachineModel::clusteredRing(8); // 24 FUs
    EXPECT_GT(chooseUnrollFactor(k.ddg, wide), 1);
}

TEST(UnrollPolicy, RecurrenceBoundsUnrolling)
{
    // Horner: RecMII 3 per iteration; unrolling cannot beat the
    // recurrence, so the policy should stay at factor 1 (rate is
    // flat at 3.0 for every u and ties go to the smallest).
    Loop k = kernelHorner();
    MachineModel wide = MachineModel::clusteredRing(10);
    EXPECT_EQ(chooseUnrollFactor(k.ddg, wide), 1);
}

TEST(UnrollPolicy, RateNeverWorsens)
{
    for (const Loop &k : namedKernels()) {
        for (int c : {1, 4, 8}) {
            MachineModel m = MachineModel::clusteredRing(c);
            int u = chooseUnrollFactor(k.ddg, m);
            ASSERT_GE(u, 1);
            ASSERT_LE(u, 8);
            // The chosen body must not have a worse per-original-
            // iteration MII than the original body.
            Ddg body = applyUnrollPolicy(k.ddg, m);
            double rate_u =
                static_cast<double>(
                    std::max(resMii(body, m), recMii(body))) /
                body.unrollFactor();
            double rate_1 = static_cast<double>(
                std::max(resMii(k.ddg, m), recMii(k.ddg)));
            EXPECT_LE(rate_u, rate_1 + 1e-9)
                << k.name << " on " << c << " clusters";
        }
    }
}

TEST(UnrollPolicy, MaxOpsCapRespected)
{
    Loop k = kernelColorConvert(); // 21 ops
    MachineModel wide = MachineModel::clusteredRing(10);
    Ddg body = applyUnrollPolicy(k.ddg, wide, 8, 64);
    EXPECT_LE(body.liveOpCount(), 64);
}

} // namespace
} // namespace dms
