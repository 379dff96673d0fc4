#include "workload/synth.h"

#include <algorithm>
#include <cmath>

#include "ir/verify.h"
#include "support/diag.h"

namespace dms {

namespace {

/**
 * Pick an input producer with locality bias: recent values are
 * more likely, modelling the short def-use distances of real loop
 * bodies.
 */
OpId
pickInput(Rng &rng, const std::vector<OpId> &producers)
{
    DMS_ASSERT(!producers.empty(), "no producers to pick from");
    int n = static_cast<int>(producers.size());
    // Square the uniform draw toward 1.0 -> bias to recent ids.
    double u = rng.uniform();
    int idx = static_cast<int>((1.0 - u * u) * n);
    idx = std::clamp(idx, 0, n - 1);
    return producers[static_cast<size_t>(idx)];
}

} // namespace

Loop
synthesizeLoop(Rng &rng, const SynthParams &params, int index)
{
    LoopBuilder b;
    LatencyModel lat;

    int n_ops = rng.range(params.minOps, params.maxOps);
    double load_frac = params.loadFracLo +
        rng.uniform() * (params.loadFracHi - params.loadFracLo);
    double store_frac = params.storeFracLo +
        rng.uniform() * (params.storeFracHi - params.storeFracLo);
    int n_loads = std::max(
        1, static_cast<int>(std::lround(n_ops * load_frac)));
    int n_stores = std::max(
        1, static_cast<int>(std::lround(n_ops * store_frac)));
    int n_arith = std::max(1, n_ops - n_loads - n_stores);

    int n_streams = rng.range(1, 4);

    // Loads first (values enter the body from memory).
    std::vector<OpId> producers;
    std::vector<OpId> loads;
    for (int i = 0; i < n_loads; ++i) {
        OpId ld = b.load(rng.range(0, n_streams - 1),
                         rng.range(0, 2));
        producers.push_back(ld);
        loads.push_back(ld);
    }

    // Arithmetic as a few statement-level expression trees, the
    // shape of real loop bodies (one tree per source statement,
    // leaves mostly this statement's loads, occasional shared
    // subexpressions across statements). Tree-like structure keeps
    // most values single-use; sharing creates the multi-use
    // lifetimes the pre-pass exists for.
    int n_statements =
        std::clamp(1 + n_arith / 6, 1, 4);
    std::vector<OpId> unary_arith;
    int made = 0;
    for (int s = 0; s < n_statements; ++s) {
        int quota = s + 1 == n_statements
                        ? n_arith - made
                        : n_arith / n_statements;
        // This statement's working set starts from a few loads.
        std::vector<OpId> avail;
        int leaves = rng.range(1, 3);
        for (int l = 0; l < leaves && !loads.empty(); ++l) {
            avail.push_back(loads[static_cast<size_t>(rng.range(
                0, static_cast<int>(loads.size()) - 1))]);
        }
        if (avail.empty())
            avail.push_back(pickInput(rng, producers));

        for (int i = 0; i < quota; ++i, ++made) {
            bool is_mul = rng.chance(params.mulFrac);
            bool is_div = is_mul && rng.chance(params.divProb);
            // Tree reduction: consume values from this statement,
            // rarely import one from the whole body (shared
            // subexpression).
            auto take = [&]() {
                if (rng.chance(0.12))
                    return pickInput(rng, producers);
                size_t idx = static_cast<size_t>(rng.range(
                    0, static_cast<int>(avail.size()) - 1));
                OpId v = avail[idx];
                // Mostly single-use: remove the consumed value.
                if (rng.chance(0.8))
                    avail.erase(avail.begin() +
                                static_cast<long>(idx));
                return v;
            };
            bool binary = avail.size() >= 2 && rng.chance(0.6);
            OpId a = take();
            OpId op;
            if (binary) {
                OpId c = take();
                op = is_div   ? b.div(a, c)
                     : is_mul ? b.mul(a, c)
                     : rng.chance(0.25) ? b.sub(a, c)
                                        : b.add(a, c);
            } else {
                op = is_mul ? b.mul1(a)
                     : rng.chance(0.25) ? b.sub1(a)
                                        : b.add1(a);
                unary_arith.push_back(op);
            }
            avail.push_back(op);
            producers.push_back(op);
        }
    }

    // Recurrences: back-edges into free slot-1 operands.
    bool wants_rec = rng.chance(params.recurrenceProb);
    int cycles = wants_rec
                     ? (rng.chance(params.secondRecurrenceProb) ? 2
                                                                : 1)
                     : 0;
    for (int k = 0; k < cycles && !unary_arith.empty(); ++k) {
        size_t pick = static_cast<size_t>(
            rng.range(0, static_cast<int>(unary_arith.size()) - 1));
        OpId head = unary_arith[pick];
        unary_arith.erase(unary_arith.begin() +
                          static_cast<long>(pick));
        int dist = rng.range(1, 2);
        if (rng.chance(params.longCycleProb)) {
            // Two-op cycle: head -> tail -> head.
            OpId tail = rng.chance(0.5) ? b.mul1(head)
                                        : b.add1(head);
            b.flow(tail, head, 1, dist);
            producers.push_back(tail);
        } else {
            b.flow(head, head, 1, dist);
        }
    }

    // Stores consume sink values (prefer late producers).
    std::vector<OpId> stores;
    for (int i = 0; i < n_stores; ++i) {
        // Find an unconsumed value if one exists.
        OpId best = kInvalidOp;
        for (OpId id = b.ddg().numOps() - 1; id >= 0; --id) {
            if (producesValue(b.ddg().op(id).opc) &&
                b.ddg().flowFanout(id) == 0) {
                best = id;
                break;
            }
        }
        if (best == kInvalidOp)
            best = pickInput(rng, producers);
        stores.push_back(
            b.store(n_streams + rng.range(0, 1), best, 0));
    }

    // Consume any remaining dead values with extra stores: real
    // loop bodies do not compute unused results.
    for (OpId id = 0; id < b.ddg().numOps(); ++id) {
        if (producesValue(b.ddg().op(id).opc) &&
            b.ddg().opLive(id) && b.ddg().flowFanout(id) == 0) {
            stores.push_back(b.store(n_streams + 2, id, 0));
        }
    }

    // Occasional memory ordering edge: a store aliasing a later
    // load one iteration out.
    if (!stores.empty() && rng.chance(params.memDepProb)) {
        OpId st = stores[static_cast<size_t>(
            rng.range(0, static_cast<int>(stores.size()) - 1))];
        OpId ld = loads[static_cast<size_t>(
            rng.range(0, static_cast<int>(loads.size()) - 1))];
        b.memDep(st, ld, rng.range(1, 2), 1);
    }

    Loop loop;
    loop.name = strfmt("synth%04d", index);
    loop.ddg = b.take();
    // Log-uniform trip count.
    double lo = std::log(static_cast<double>(params.tripLo));
    double hi = std::log(static_cast<double>(params.tripHi));
    loop.tripCount = static_cast<long>(
        std::lround(std::exp(lo + rng.uniform() * (hi - lo))));
    return loop;
}

std::vector<Loop>
synthesizeSuite(std::uint64_t seed, int count,
                const SynthParams &params)
{
    Rng rng(seed);
    std::vector<Loop> out;
    out.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
        Rng loop_rng = rng.fork();
        out.push_back(synthesizeLoop(loop_rng, params, i));
    }
    return out;
}

} // namespace dms
