/**
 * @file
 * Property-based sweeps: seeded random loops scheduled on random
 * machine shapes, asserting the invariants of the whole pipeline —
 * II >= MII, schedule legality, communication discipline, queue
 * allocation sanity, and simulated semantics equal to sequential
 * execution.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "core/dms.h"
#include "ir/prepass.h"
#include "ir/verify.h"
#include "regalloc/queue_alloc.h"
#include "sched/ims.h"
#include "sched/mii.h"
#include "sched/verifier.h"
#include "sim/exec.h"
#include "workload/synth.h"
#include "workload/unroll_policy.h"

namespace dms {
namespace {

class RandomLoopDms
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(RandomLoopDms, FullPipelineInvariants)
{
    auto [seed, clusters] = GetParam();
    Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 13);
    SynthParams sp;
    Loop loop = synthesizeLoop(rng, sp, seed);

    MachineModel machine = MachineModel::clusteredRing(clusters);
    Ddg body = loop.ddg;
    singleUsePrepass(body, machine.latencyOf(Opcode::Copy));

    DdgVerifyOptions vopts;
    vopts.maxFlowFanout = 2;
    ASSERT_TRUE(verifyDdg(body, vopts).empty());

    int mii = std::max(resMii(body, machine), recMii(body));
    DmsOutcome out = scheduleDms(body, machine);
    ASSERT_TRUE(out.sched.ok) << loop.name;

    // II >= MII always.
    EXPECT_GE(out.sched.ii, mii);

    // Full legality, including communication rules.
    auto problems =
        verifySchedule(*out.ddg, machine, *out.sched.schedule);
    ASSERT_TRUE(problems.empty())
        << loop.name << ": " << problems[0];

    // Every active flow edge maps onto an LRF or a CQRF.
    QueueAllocation qa =
        allocateQueues(*out.ddg, machine, *out.sched.schedule);
    for (const Lifetime &lt : qa.lifetimes) {
        EXPECT_GE(lt.span, 0);
        EXPECT_GE(lt.depth, 1);
    }

    // End to end: pipelined execution computes the loop.
    auto sim_problems = simulateAndCheck(*out.ddg, machine,
                                         *out.sched.schedule, 12);
    EXPECT_TRUE(sim_problems.empty())
        << loop.name << ": "
        << (sim_problems.empty() ? "" : sim_problems[0]);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomLoopDms,
    ::testing::Combine(::testing::Range(0, 25),
                       ::testing::Values(2, 4, 7, 10)),
    [](const auto &info) {
        return "s" + std::to_string(std::get<0>(info.param)) +
               "_c" + std::to_string(std::get<1>(info.param));
    });

class RandomLoopIms : public ::testing::TestWithParam<int>
{};

TEST_P(RandomLoopIms, UnclusteredInvariants)
{
    int seed = GetParam();
    Rng rng(static_cast<std::uint64_t>(seed) * 104729 + 1);
    SynthParams sp;
    Loop loop = synthesizeLoop(rng, sp, seed);

    for (int width : {1, 3, 7}) {
        MachineModel machine = MachineModel::unclustered(width);
        SchedOutcome out = scheduleIms(loop.ddg, machine);
        ASSERT_TRUE(out.ok) << loop.name;
        EXPECT_GE(out.ii, std::max(resMii(loop.ddg, machine),
                                   recMii(loop.ddg)));
        checkSchedule(loop.ddg, machine, *out.schedule);
        auto problems = simulateAndCheck(loop.ddg, machine,
                                         *out.schedule, 10);
        EXPECT_TRUE(problems.empty())
            << loop.name << " w" << width << ": "
            << (problems.empty() ? "" : problems[0]);
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomLoopIms,
                         ::testing::Range(0, 30));

class UnrolledRandomLoop : public ::testing::TestWithParam<int>
{};

TEST_P(UnrolledRandomLoop, PolicyPipelineOnWideMachines)
{
    int seed = GetParam();
    Rng rng(static_cast<std::uint64_t>(seed) * 31337 + 5);
    SynthParams sp;
    sp.maxOps = 16; // small bodies so unrolling actually triggers
    Loop loop = synthesizeLoop(rng, sp, seed);

    MachineModel machine = MachineModel::clusteredRing(8);
    Ddg body = applyUnrollPolicy(loop.ddg, machine);
    int factor = body.unrollFactor();
    singleUsePrepass(body, machine.latencyOf(Opcode::Copy));

    DmsOutcome out = scheduleDms(body, machine);
    ASSERT_TRUE(out.sched.ok) << loop.name;
    checkSchedule(*out.ddg, machine, *out.sched.schedule);

    // Simulate 8 unrolled iterations and compare with the original
    // body over 8 * factor iterations.
    SimResult sim =
        simulateSchedule(*out.ddg, machine, *out.sched.schedule, 8);
    ASSERT_TRUE(sim.ok)
        << loop.name << ": " << sim.problems[0];
    StoreLog ref = referenceExecute(loop.ddg, 8L * factor);
    auto problems = compareStoreLogs(ref, sim.log);
    EXPECT_TRUE(problems.empty())
        << loop.name << " x" << factor << ": "
        << (problems.empty() ? "" : problems[0]);
}

INSTANTIATE_TEST_SUITE_P(Sweep, UnrolledRandomLoop,
                         ::testing::Range(0, 15));

TEST(PropertyBudget, HigherBudgetNeverWorsensIi)
{
    Rng rng(2024);
    SynthParams sp;
    for (int i = 0; i < 10; ++i) {
        Loop loop = synthesizeLoop(rng, sp, i);
        MachineModel m = MachineModel::clusteredRing(5);
        Ddg body = loop.ddg;
        singleUsePrepass(body, 1);

        DmsParams small;
        small.budgetRatio = 2;
        DmsParams big;
        big.budgetRatio = 12;
        DmsOutcome a = scheduleDms(body, m, small);
        DmsOutcome b = scheduleDms(body, m, big);
        ASSERT_TRUE(a.sched.ok && b.sched.ok);
        EXPECT_LE(b.sched.ii, a.sched.ii) << loop.name;
    }
}

TEST(PropertyCopyFus, MoreCopyUnitsNeverWorsenIi)
{
    // Ablation A2's premise: extra copy units can only help.
    Rng rng(515);
    SynthParams sp;
    for (int i = 0; i < 10; ++i) {
        Loop loop = synthesizeLoop(rng, sp, i);
        Ddg body = loop.ddg;
        singleUsePrepass(body, 1);
        MachineModel one = MachineModel::clusteredRing(6, 1);
        MachineModel two = MachineModel::clusteredRing(6, 2);
        DmsOutcome a = scheduleDms(body, one);
        DmsOutcome b = scheduleDms(body, two);
        ASSERT_TRUE(a.sched.ok && b.sched.ok);
        EXPECT_LE(b.sched.mii, a.sched.mii);
    }
}

} // namespace
} // namespace dms
