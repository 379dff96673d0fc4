/**
 * @file
 * Textual DDG serialization: round trips, error handling, and
 * semantic equivalence of parsed loops.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "ir/scc.h"
#include "machine/desc.h"
#include "mutate.h"
#include "serve/loadgen.h"
#include "sim/reference.h"
#include "support/diag.h"
#include "workload/synth.h"
#include "workload/text.h"

namespace dms {
namespace {

TEST(Text, SerializeMentionsEverything)
{
    Loop k = kernelDotProduct();
    std::string txt = loopToText(k);
    EXPECT_NE(txt.find("loop dot_product trip 500"),
              std::string::npos);
    EXPECT_NE(txt.find("op 2 mul"), std::string::npos);
    EXPECT_NE(txt.find("dist=1"), std::string::npos);
    EXPECT_NE(txt.find("slot=1"), std::string::npos);
}

TEST(Text, RoundTripAllKernels)
{
    for (const Loop &k : namedKernels()) {
        Loop back = loopFromText(loopToText(k));
        EXPECT_EQ(back.name, k.name);
        EXPECT_EQ(back.tripCount, k.tripCount);
        EXPECT_EQ(back.ddg.liveOpCount(), k.ddg.liveOpCount());
        EXPECT_EQ(hasRecurrence(back.ddg), hasRecurrence(k.ddg));
        // Semantics: identical store logs.
        auto problems = compareStoreLogs(
            referenceExecute(k.ddg, 12),
            referenceExecute(back.ddg, 12));
        EXPECT_TRUE(problems.empty())
            << k.name << ": "
            << (problems.empty() ? "" : problems[0]);
    }
}

TEST(Text, RoundTripSyntheticLoops)
{
    for (const Loop &k : synthesizeSuite(99, 25)) {
        Loop back = loopFromText(loopToText(k));
        EXPECT_EQ(back.ddg.liveOpCount(), k.ddg.liveOpCount());
        auto problems = compareStoreLogs(
            referenceExecute(k.ddg, 8),
            referenceExecute(back.ddg, 8));
        EXPECT_TRUE(problems.empty()) << k.name;
    }
}

/**
 * The canonical form is load-bearing as the serve-cache key: one
 * parse must be a fixed point, i.e. serializing the re-parsed loop
 * reproduces the text byte for byte. Fuzz over the synthetic
 * generator (several seeds) plus every named kernel.
 */
TEST(Text, FuzzCanonicalRoundTripIsFixedPoint)
{
    std::vector<Loop> loops;
    for (std::uint64_t seed : {1ULL, 42ULL, 0xfeedULL}) {
        for (Loop &l : synthesizeSuite(seed, 60))
            loops.push_back(std::move(l));
    }
    for (Loop &k : namedKernels())
        loops.push_back(std::move(k));

    for (const Loop &l : loops) {
        std::string t1 = loopToText(l);
        Loop back = loopFromText(t1);
        std::string t2 = loopToText(back);
        ASSERT_EQ(t2, t1) << "canonicalization drift for '"
                          << l.name << "'";
    }
}

/**
 * Dead ops leave id gaps in the graph; the canonical serialization
 * renumbers densely so the text of a gappy graph equals the text
 * of its re-parsed (dense) self.
 */
TEST(Text, DeadOpsSerializeDense)
{
    Loop l = kernelDotProduct();
    // Graft a dead op into the middle: add and remove again.
    OpId extra = l.ddg.addOp(Opcode::Add);
    l.ddg.removeOp(extra);
    std::string t1 = loopToText(l);
    EXPECT_EQ(t1, loopToText(loopFromText(t1)));
    // Dense ids: the serialized op count is the live count, and no
    // id beyond it appears.
    EXPECT_EQ(t1.find(strfmt("op %d", l.ddg.liveOpCount())),
              std::string::npos);
}

/**
 * offset= and lit= are signed in the format (negative stencil
 * offsets, negative constants); the parser must accept what the
 * serializer emits.
 */
TEST(Text, NegativeOffsetAndLiteralRoundTrip)
{
    Loop l;
    l.name = "neg";
    l.tripCount = 10;
    OpId ld = l.ddg.addOp(Opcode::Load);
    l.ddg.op(ld).memStream = 0;
    l.ddg.op(ld).memOffset = -2;
    OpId c = l.ddg.addOp(Opcode::Const);
    l.ddg.op(c).literal = -7;
    OpId add = l.ddg.addOp(Opcode::Add);
    OpId st = l.ddg.addOp(Opcode::Store);
    l.ddg.op(st).memStream = 1;
    l.ddg.op(st).memOffset = -1;
    l.ddg.addEdge(ld, add, DepKind::Flow, 0, 2, 0);
    l.ddg.addEdge(c, add, DepKind::Flow, 0, 0, 1);
    l.ddg.addEdge(add, st, DepKind::Flow, 0, 1, 0);

    std::string t1 = loopToText(l);
    EXPECT_NE(t1.find("offset=-2"), std::string::npos);
    EXPECT_NE(t1.find("lit=-7"), std::string::npos);
    Loop back = loopFromText(t1);
    EXPECT_EQ(back.ddg.op(0).memOffset, -2);
    EXPECT_EQ(back.ddg.op(1).literal, -7);
    EXPECT_EQ(loopToText(back), t1);
}

TEST(Text, NonFatalParseReportsErrors)
{
    Loop out;
    std::string error;
    EXPECT_FALSE(loopFromText("op 0 frobnicate\n", out, error));
    EXPECT_NE(error.find("unknown opcode"), std::string::npos);
    EXPECT_NE(error.find("line 1"), std::string::npos);

    // An id with bytes after an embedded NUL is not an id.
    using namespace std::string_literals;
    const std::string nul_id = "loop t trip 1\n"
                               "op 0 load stream=0\n"
                               "op 1\0zz store stream=1\n"
                               "edge 0 1 flow dist=0 slot=0\n"s;
    EXPECT_FALSE(loopFromText(nul_id, out, error));
    EXPECT_EQ(error, "line 3: bad op id");

    error.clear();
    EXPECT_TRUE(loopFromText(loopToText(kernelFir8()), out, error));
    EXPECT_TRUE(error.empty());
    EXPECT_EQ(out.name, "fir8");
}

TEST(Text, LoadLoopSpecSharedLoader)
{
    Loop out;
    std::string error;
    EXPECT_TRUE(loadLoopSpec("kernel:daxpy", out, error));
    EXPECT_EQ(out.name, "daxpy");
    EXPECT_FALSE(loadLoopSpec("kernel:nosuch", out, error));
    EXPECT_NE(error.find("unknown kernel"), std::string::npos);
    EXPECT_FALSE(loadLoopSpec("/nonexistent/path.loop", out,
                              error));
    EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(Text, ParsesCommentsAndBlanks)
{
    Loop l = loopFromText("# header\n\nloop t trip 7\n"
                          "op 0 load stream=3 offset=2\n"
                          "# mid comment\n"
                          "op 1 store stream=4\n"
                          "edge 0 1 flow dist=0 slot=0\n");
    EXPECT_EQ(l.name, "t");
    EXPECT_EQ(l.tripCount, 7);
    EXPECT_EQ(l.ddg.op(0).memStream, 3);
    EXPECT_EQ(l.ddg.op(0).memOffset, 2);
    EXPECT_FALSE(hasRecurrence(l.ddg));
}

TEST(Text, ParsesConstLiteral)
{
    Loop l = loopFromText("loop c trip 1\n"
                          "op 0 const lit=42\n"
                          "op 1 store stream=0\n"
                          "edge 0 1 flow dist=0 slot=0\n");
    EXPECT_EQ(l.ddg.op(0).literal, 42);
}

TEST(Text, NonFlowEdgesTakeExplicitLatency)
{
    Loop l = loopFromText("loop m trip 1\n"
                          "op 0 load stream=0\n"
                          "op 1 store stream=0\n"
                          "edge 0 1 flow dist=0 slot=0\n"
                          "edge 1 0 memory dist=1 lat=3\n");
    bool found = false;
    for (EdgeId e = 0; e < l.ddg.numEdges(); ++e) {
        if (l.ddg.edge(e).kind == DepKind::Memory) {
            EXPECT_EQ(l.ddg.edge(e).latency, 3);
            EXPECT_EQ(l.ddg.edge(e).distance, 1);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Text, FlowLatencyComesFromModel)
{
    LatencyModel lat;
    lat.set(Opcode::Load, 9);
    Loop l = loopFromText("loop x trip 1\n"
                          "op 0 load stream=0\n"
                          "op 1 store stream=1\n"
                          "edge 0 1 flow dist=0 slot=0\n",
                          lat);
    EXPECT_EQ(l.ddg.edge(0).latency, 9);
}

/**
 * Parse outcomes of fixed-seed mutations of the hot kernels and a
 * synthetic slice: the canonical text (and recurrence bit) of every
 * accepted input, the error message of every rejected one. The hash
 * pins the accepted language, every message and line number, and
 * the canonical bytes.
 */
TEST(Text, MutationOutcomesPinned)
{
    std::vector<std::string> bases = hotKernelTexts();
    for (const Loop &l : synthesizeSuite(0x7e57, 24))
        bases.push_back(loopToText(l));
    // Legal but far from canonical: ignored and repeated attributes,
    // signs and leading zeros, a tab inside a line, a CR, ids out of
    // order.
    bases.push_back("# every attribute on every directive\n"
                    "loop odd trip +0012\n"
                    "op 7 load stream=1 offset=-0 lit=9 foo=bar\n"
                    "op 3\t add stream=2 stream=3 lit=4 =\n"
                    "op 5 const lit=-6 offset=+2\n"
                    "op 9 store stream=+04 lat=2 slot=1\n"
                    "edge 7 3 flow dist=0 slot=0 lat=9\n"
                    "edge 5 3 flow slot=1 dist=00\n"
                    "edge 3 9 flow dist=0 slot=0\n"
                    "edge 9 7 memory dist=1 slot=x\n"
                    "edge 3 3 anti dist=1\n"
                    "   edge 3 9 output dist=+1 lat=0 \r\n");
    const std::vector<std::string> keywords = {
        "loop",      "trip",    "op",       "edge",
        "load",      "store",   "const",    "mul",
        "flow",      "anti",    "output",   "memory",
        "stream=",   "offset=-", "lit=",    "dist=1",
        "slot=1",    "lat=",    " lit=7",   " stream=2",
        " offset=-1", " lat=3", "\nop 99 add",
        "\nedge 0 0 flow dist=1 slot=1",
    };
    int accepted = 0;
    const std::uint64_t hash = mutationOutcomeHash(
        bases, keywords, 150, 0xfa22, accepted,
        [](const std::string &text, bool &ok) {
            Loop loop;
            std::string error;
            ok = loopFromText(text, loop, error);
            if (!ok)
                return "error " + error;
            return std::string(hasRecurrence(loop.ddg) ? "rec "
                                                       : "ok ") +
                   loopToText(loop);
        });
    EXPECT_GT(accepted, 300);
    EXPECT_LT(accepted, 5000);
    EXPECT_EQ(hash, 0x67a23fda6c915430ULL) << std::hex << hash;
}

/**
 * The canonical bytes are the cache, alias and quarantine keys:
 * one hash over loopToText of the named kernels and two synthetic
 * seeds, and machineToText of the standard machine shapes.
 */
TEST(Text, CanonicalBytesPinned)
{
    std::string all;
    for (const Loop &k : namedKernels())
        all += loopToText(k);
    for (std::uint64_t seed : {3ULL, 0xc0deULL}) {
        for (const Loop &l : synthesizeSuite(seed, 40))
            all += loopToText(l);
    }
    std::vector<MachineModel> machines = {MachineModel::unclustered(1)};
    for (int c = 2; c <= 10; ++c)
        machines.push_back(MachineModel::clusteredRing(c));
    machines.push_back(MachineModel::custom(
        6, RegFileKind::Queues, {1, 1, 1, 1}, TopologyKind::Mesh, 2,
        3));
    machines.push_back(MachineModel::custom(
        5, RegFileKind::Conventional, {2, 1, 1, 0},
        TopologyKind::Crossbar));
    MachineModel lat = MachineModel::clusteredRing(4, 2);
    lat.setName("ring4-slowmul");
    lat.latency().set(Opcode::Mul, 4);
    lat.latency().set(Opcode::Load, 0);
    machines.push_back(lat);
    for (const MachineModel &m : machines)
        all += machineToText(m);
    EXPECT_EQ(fnv1a64(all), 0x5633b6d64bd28812ULL)
        << std::hex << fnv1a64(all);
}

using TextDeath = ::testing::Test;

TEST(TextDeath, RejectsUnknownOpcode)
{
    EXPECT_EXIT(loopFromText("op 0 frobnicate\n"),
                ::testing::ExitedWithCode(1), "unknown opcode");
}

TEST(TextDeath, RejectsUnknownDirective)
{
    EXPECT_EXIT(loopFromText("banana 1 2\n"),
                ::testing::ExitedWithCode(1), "unknown directive");
}

TEST(TextDeath, RejectsDanglingEdge)
{
    EXPECT_EXIT(loopFromText("op 0 load\nedge 0 5 flow slot=0\n"),
                ::testing::ExitedWithCode(1), "unknown op");
}

TEST(TextDeath, RejectsDuplicateOpId)
{
    EXPECT_EXIT(loopFromText("op 0 load\nop 0 load\n"),
                ::testing::ExitedWithCode(1), "duplicate");
}

TEST(TextDeath, RejectsZeroDistanceCycle)
{
    EXPECT_EXIT(loopFromText("loop z trip 1\n"
                             "op 0 add\nop 1 add\n"
                             "edge 0 1 flow dist=0 slot=0\n"
                             "edge 1 0 flow dist=0 slot=0\n"),
                ::testing::ExitedWithCode(1), "invalid loop");
}

} // namespace
} // namespace dms
