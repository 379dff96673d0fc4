/**
 * @file
 * Height relaxation and the II ladder: divergence below RecMII must
 * be a recoverable failure rather than a panic, and the DMS II
 * ladder's placements and attempt/budget accounting are pinned to a
 * recorded value.
 */

#include <cstdint>

#include <gtest/gtest.h>

#include "core/dms.h"
#include "ir/prepass.h"
#include "sched/mii.h"
#include "sched/priority.h"
#include "workload/kernels.h"
#include "workload/unroll_policy.h"

namespace {

using namespace dms;

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
        // The diverged table left in @c h must not leak into the
        // next relaxation: it equals one into a fresh table.
        Heights fresh;
        ASSERT_TRUE(tryComputeHeights(loop.ddg, rec, fresh));
        EXPECT_EQ(h, fresh) << loop.name;
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
