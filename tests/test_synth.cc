/**
 * @file
 * Synthetic suite: determinism, structural validity, statistical
 * shape (set-2 fraction, op mix), and suite helpers.
 */

#include <gtest/gtest.h>

#include "ir/scc.h"
#include "ir/verify.h"
#include "workload/suite.h"
#include "workload/synth.h"

namespace dms {
namespace {

TEST(Synth, Deterministic)
{
    auto a = synthesizeSuite(42, 30);
    auto b = synthesizeSuite(42, 30);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].ddg.numOps(), b[i].ddg.numOps());
        EXPECT_EQ(a[i].ddg.numEdges(), b[i].ddg.numEdges());
        EXPECT_EQ(a[i].tripCount, b[i].tripCount);
        EXPECT_EQ(hasRecurrence(a[i].ddg), hasRecurrence(b[i].ddg));
    }
}

TEST(Synth, DifferentSeedsDiffer)
{
    auto a = synthesizeSuite(1, 20);
    auto b = synthesizeSuite(2, 20);
    int same = 0;
    for (size_t i = 0; i < a.size(); ++i)
        same += a[i].ddg.numOps() == b[i].ddg.numOps();
    EXPECT_LT(same, 20);
}

TEST(Synth, AllLoopsStructurallyValid)
{
    auto loops = synthesizeSuite(kSuiteSeed, 300);
    for (const Loop &k : loops) {
        EXPECT_TRUE(verifyDdg(k.ddg).empty()) << k.name;
        EXPECT_GE(k.ddg.liveOpCount(), 4) << k.name;
        EXPECT_GT(k.tripCount, 0) << k.name;
    }
}

TEST(Synth, NoDeadValues)
{
    auto loops = synthesizeSuite(7, 60);
    for (const Loop &k : loops) {
        for (OpId id = 0; id < k.ddg.numOps(); ++id) {
            if (!k.ddg.opLive(id))
                continue;
            if (producesValue(k.ddg.op(id).opc)) {
                EXPECT_GT(k.ddg.flowFanout(id), 0)
                    << k.name << " " << k.ddg.opLabel(id);
            }
        }
    }
}

TEST(Synth, RecurrenceFractionNearTarget)
{
    auto loops = synthesizeSuite(kSuiteSeed, 600);
    int recs = 0;
    for (const Loop &k : loops)
        recs += hasRecurrence(k.ddg);
    double frac = static_cast<double>(recs) / 600.0;
    EXPECT_GT(frac, 0.25);
    EXPECT_LT(frac, 0.55);
}

TEST(Synth, OpMixIsPlausible)
{
    auto loops = synthesizeSuite(kSuiteSeed, 200);
    long ls = 0;
    long add = 0;
    long mul = 0;
    long total = 0;
    for (const Loop &k : loops) {
        auto counts = k.ddg.opCountByClass();
        ls += counts[static_cast<int>(FuClass::LdSt)];
        add += counts[static_cast<int>(FuClass::Add)];
        mul += counts[static_cast<int>(FuClass::Mul)];
        total += k.ddg.liveOpCount();
    }
    EXPECT_GT(static_cast<double>(ls) / total, 0.2);
    EXPECT_LT(static_cast<double>(ls) / total, 0.65);
    EXPECT_GT(static_cast<double>(add) / total, 0.15);
    EXPECT_GT(static_cast<double>(mul) / total, 0.05);
}

TEST(Synth, SizesSpanTheRange)
{
    auto loops = synthesizeSuite(kSuiteSeed, 400);
    int small = 0;
    int large = 0;
    for (const Loop &k : loops) {
        small += k.ddg.liveOpCount() <= 10;
        large += k.ddg.liveOpCount() >= 30;
    }
    EXPECT_GT(small, 0);
    EXPECT_GT(large, 0);
}

TEST(Suite, StandardSuiteComposition)
{
    auto suite = standardSuite(kSuiteSeed, 50);
    EXPECT_EQ(suite.size(), 50u + 16u); // synth + named kernels
}

TEST(Suite, SetSelection)
{
    auto suite = standardSuite(kSuiteSeed, 100);
    auto set1 = selectSet(suite, LoopSet::Set1);
    auto set2 = selectSet(suite, LoopSet::Set2);
    EXPECT_EQ(set1.size(), suite.size());
    EXPECT_LT(set2.size(), set1.size());
    EXPECT_GT(set2.size(), 0u);
    for (size_t i : set2)
        EXPECT_FALSE(hasRecurrence(suite[i].ddg));
}

TEST(Suite, PaperLoopCountDefault)
{
    // The default synthetic count matches the paper's 1258 loops;
    // construction only (no scheduling) to keep the test fast.
    auto suite = synthesizeSuite(kSuiteSeed, 1258);
    EXPECT_EQ(suite.size(), 1258u);
}

} // namespace
} // namespace dms
