/**
 * @file
 * Declarative machine description tests: canonical round-trips,
 * factory equivalence of the runner's sweep templates, template
 * expansion, topology semantics of the mesh/crossbar variants, and
 * rejection of malformed input with line-numbered errors.
 */

#include <gtest/gtest.h>

#include "eval/runner.h"
#include "machine/desc.h"
#include "mutate.h"

namespace {

using namespace dms;

MachineModel
parseOk(const std::string &text)
{
    MachineModel m = MachineModel::unclustered(1);
    std::string error;
    EXPECT_TRUE(machineFromText(text, m, error)) << error;
    return m;
}

std::string
parseError(const std::string &text)
{
    MachineModel m = MachineModel::unclustered(1);
    std::string error;
    EXPECT_FALSE(machineFromText(text, m, error))
        << "accepted: " << text;
    return error;
}

TEST(MachineDesc, RoundTripsCanonicalForm)
{
    MachineModel ring = MachineModel::clusteredRing(4, 2);
    ring.setName("ring4");
    ring.latency().set(Opcode::Mul, 4);

    MachineModel wide = MachineModel::unclustered(6);

    MachineModel mesh = MachineModel::custom(
        6, RegFileKind::Queues, {1, 1, 1, 1}, TopologyKind::Mesh,
        2, 3);
    mesh.setName("mesh2x3");

    MachineModel xbar = MachineModel::custom(
        5, RegFileKind::Queues, {2, 1, 1, 1},
        TopologyKind::Crossbar);

    for (const MachineModel &m : {ring, wide, mesh, xbar}) {
        MachineModel back = parseOk(machineToText(m));
        EXPECT_EQ(m, back) << machineToText(m);
    }
}

TEST(MachineDesc, DefaultsMatchSingleConventionalCluster)
{
    MachineModel m = parseOk("clusters 1\n");
    EXPECT_EQ(m, MachineModel::unclustered(1));
}

TEST(MachineDesc, SweepTemplatesMatchFactories)
{
    for (int c = 1; c <= 10; ++c) {
        MachineModel clustered = parseOk(
            expandMachineTemplate(kClusteredMachineTemplate, c));
        EXPECT_EQ(clustered, MachineModel::clusteredRing(c));

        MachineModel unclustered = parseOk(
            expandMachineTemplate(kUnclusteredMachineTemplate, c));
        EXPECT_EQ(unclustered, MachineModel::unclustered(c));
    }
}

TEST(MachineDesc, TemplateExpandsEveryPlaceholder)
{
    EXPECT_EQ(expandMachineTemplate("fus ldst=$C add=$C\n", 12),
              "fus ldst=12 add=12\n");
    EXPECT_EQ(expandMachineTemplate("no placeholder", 3),
              "no placeholder");
    EXPECT_EQ(expandMachineTemplate("$C", 7), "7");
}

TEST(MachineDesc, CommentsAndBlankLinesIgnored)
{
    MachineModel m = parseOk("# header\n\n"
                             "clusters 2   # trailing comment\n"
                             "regfile queues\n"
                             "fus copy=1\n");
    EXPECT_EQ(m.numClusters(), 2);
    EXPECT_TRUE(m.clustered());
    EXPECT_EQ(m.fusPerCluster(FuClass::LdSt), 1); // default kept
}

TEST(MachineDesc, MeshTopologySemantics)
{
    MachineModel m = parseOk("clusters 9\n"
                             "topology mesh 3x3\n"
                             "regfile queues\n"
                             "fus copy=1\n");
    EXPECT_EQ(m.topology(), TopologyKind::Mesh);
    // Cluster ids are row-major: 0 1 2 / 3 4 5 / 6 7 8.
    EXPECT_EQ(m.distance(0, 4), 2);
    EXPECT_EQ(m.distance(0, 8), 2); // torus wrap both dims
    EXPECT_TRUE(m.directlyConnected(0, 2)); // column wrap
    EXPECT_TRUE(m.directlyConnected(0, 6)); // row wrap

    // Dimension-order routes: 0 -> 4 via column-first (route 0)
    // passes cluster 1; row-first (route 1) passes cluster 3.
    std::vector<ClusterId> path;
    m.routeBetween(0, 4, 0, path);
    ASSERT_EQ(path.size(), 1u);
    EXPECT_EQ(path[0], 1);
    m.routeBetween(0, 4, 1, path);
    ASSERT_EQ(path.size(), 1u);
    EXPECT_EQ(path[0], 3);
    EXPECT_EQ(m.routeLength(0, 4, 0), 2);
    EXPECT_EQ(m.routeLength(0, 4, 1), 2);
}

TEST(MachineDesc, CrossbarIsFullyConnected)
{
    MachineModel m = parseOk("clusters 8\n"
                             "topology crossbar\n"
                             "regfile queues\n"
                             "fus copy=1\n");
    std::vector<ClusterId> path;
    for (ClusterId a = 0; a < 8; ++a) {
        for (ClusterId b = 0; b < 8; ++b) {
            EXPECT_TRUE(m.directlyConnected(a, b));
            EXPECT_EQ(m.distance(a, b), a == b ? 0 : 1);
            m.routeBetween(a, b, 0, path);
            EXPECT_TRUE(path.empty());
        }
    }
}

TEST(MachineDesc, RejectsMalformedInput)
{
    // Each entry: input, substring expected in the error.
    using namespace std::string_view_literals;
    const struct
    {
        std::string_view text;
        const char *expect;
    } cases[] = {
        {"bogus 1\n", "unknown key"},
        {"clusters 4\0x\n"sv, "positive integer"},
        {"clusters 0\n", "positive integer"},
        {"clusters x\n", "positive integer"},
        {"clusters 4 extra\n", "positive integer"},
        {"clusters 2\nclusters 3\n", "duplicate"},
        {"topology blob\n", "topology must be"},
        {"topology mesh 2\n", "mesh dims"},
        {"topology mesh axb\n", "mesh dims"},
        {"clusters 5\ntopology mesh 2x2\nregfile queues\n"
         "fus copy=1\n",
         "does not cover"},
        {"regfile whatever\n", "regfile must be"},
        {"fus\n", "class=count"},
        {"fus bogus=1\n", "unknown FU class"},
        {"fus ldst=65\n", "out of range"},
        {"fus ldst=-1\n", "out of range"},
        {"fus ldst\n", "malformed"},
        {"latency nop=3\n", "unknown opcode"},
        {"latency mul=-1\n", "not a non-negative"},
        {"machine a b\n", "exactly one name"},
        {"clusters 4\nregfile queues\nfus copy=0\n",
         "needs copy units"},
    };
    for (const auto &c : cases) {
        std::string err = parseError(std::string(c.text));
        EXPECT_NE(err.find(c.expect), std::string::npos)
            << "input: " << c.text << "\nerror: " << err;
    }
    // Errors carry a line number.
    EXPECT_NE(parseError("clusters 2\nbogus 1\n").find("line 2"),
              std::string::npos);
}

TEST(MachineDesc, RejectsSilentLastWriterWins)
{
    // A repeated fus class or latency opcode used to be accepted
    // with the later entry silently overwriting the earlier one —
    // exactly the kind of typo ("fus ldst=1 ldst=2" for "add=2")
    // that then schedules on a machine the author never described.
    std::string err = parseError("fus ldst=1 ldst=2\n");
    EXPECT_NE(err.find("duplicate FU class 'ldst'"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("line 1"), std::string::npos) << err;

    err = parseError("latency mul=3 mul=4\n");
    EXPECT_NE(err.find("duplicate latency for opcode 'mul'"),
              std::string::npos)
        << err;

    // Also across separate latency lines.
    err = parseError("latency mul=3\nlatency mul=4\n");
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    EXPECT_NE(err.find("duplicate latency"), std::string::npos)
        << err;

    // Distinct opcodes and classes on several lines stay legal.
    MachineModel m = parseOk("clusters 1\n"
                             "fus ldst=2 add=3\n"
                             "latency mul=3\n"
                             "latency add=2\n");
    EXPECT_EQ(m.fusPerCluster(FuClass::LdSt), 2);
    EXPECT_EQ(m.latencyOf(Opcode::Mul), 3);
    EXPECT_EQ(m.latencyOf(Opcode::Add), 2);
}

TEST(MachineDesc, QueueFileMeshAndCrossbarAreHonoured)
{
    // `regfile queues` used to parse on a mesh and then be
    // silently ignored by the regalloc stage; it is a first-class
    // combination now, so the parser must hand back the queue-file
    // machine with its per-link structure intact.
    MachineModel mesh = parseOk("clusters 6\n"
                                "topology mesh 2x3\n"
                                "regfile queues\n"
                                "fus ldst=1 add=1 mul=1 copy=1\n");
    EXPECT_TRUE(mesh.clustered());
    EXPECT_EQ(mesh.regFileKind(), RegFileKind::Queues);
    // rows=2 contributes one link per cluster, cols=3 two.
    EXPECT_EQ(mesh.linksPerCluster(), 3);
    EXPECT_EQ(mesh.numLinks(), 18);

    MachineModel xbar = parseOk("clusters 4\n"
                                "topology crossbar\n"
                                "regfile queues\n"
                                "fus ldst=1 add=1 mul=1 copy=1\n");
    EXPECT_TRUE(xbar.clustered());
    EXPECT_EQ(xbar.numLinks(), 12);
}

TEST(MachineDesc, CrossLineErrorsPointAtTheOffendingLine)
{
    // The mesh/cluster mismatch is only detectable at end of
    // parse, but the diagnostic still names the topology line.
    std::string err = parseError("clusters 5\n"
                                 "topology mesh 2x2\n"
                                 "regfile queues\n"
                                 "fus copy=1\n");
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    EXPECT_NE(err.find("does not cover"), std::string::npos) << err;

    // A queue-file machine without copy units: blamed on the
    // regfile line that demanded the queues.
    err = parseError("clusters 6\n"
                     "topology mesh 2x3\n"
                     "regfile queues\n"
                     "fus copy=0\n");
    EXPECT_NE(err.find("line 3"), std::string::npos) << err;
    EXPECT_NE(err.find("needs copy units"), std::string::npos)
        << err;
}

/**
 * Parse outcomes of fixed-seed mutations of machine descriptions:
 * the canonical text of every accepted input, the error message of
 * every rejected one. Pins the accepted language, the messages and
 * line numbers, and the canonical bytes.
 */
TEST(MachineDesc, MutationOutcomesPinned)
{
    std::vector<std::string> bases = {
        "# the paper's 4-cluster ring\n"
        "machine ring4   # name\n"
        "clusters\t4\n"
        "\n"
        "topology ring\n"
        "regfile queues\n"
        "fus ldst=1 add=1 mul=1 copy=1\n"
        "latency mul=2 div=8\n",
        "clusters 6\ntopology mesh 2x3\nregfile queues\n"
        "fus copy=1 ldst=2\nlatency load=3\nlatency add=2\n",
        "machine\tm2#name\n  clusters +02\r\t\nfus copy=01 add=2#\n"
        "regfile queues\nlatency div=9 load=2 # slow\n",
    };
    std::vector<MachineModel> machines = {MachineModel::unclustered(1),
                                          MachineModel::unclustered(8)};
    for (int c = 2; c <= 10; ++c)
        machines.push_back(MachineModel::clusteredRing(c));
    machines.push_back(MachineModel::custom(
        5, RegFileKind::Queues, {2, 1, 1, 1}, TopologyKind::Crossbar));
    MachineModel named = MachineModel::clusteredRing(4, 2);
    named.setName("ring4");
    named.latency().set(Opcode::Mul, 4);
    machines.push_back(named);
    for (const MachineModel &m : machines)
        bases.push_back(machineToText(m));
    const std::vector<std::string> keywords = {
        "machine", "clusters", "topology", "ring",  "crossbar",
        "mesh",    "2x3",      "regfile",  "queues", "conventional",
        "fus",     "ldst=1",   "copy=",    "latency", "mul=3",
        "$C",      "\nclusters 3",
    };
    int accepted = 0;
    const std::uint64_t hash = mutationOutcomeHash(
        bases, keywords, 1000, 0x3ac1, accepted,
        [](const std::string &text, bool &ok) {
            MachineModel m = MachineModel::unclustered(1);
            std::string error;
            ok = machineFromText(text, m, error);
            return ok ? "ok " + machineToText(m) : "error " + error;
        });
    EXPECT_GT(accepted, 300);
    EXPECT_LT(accepted, 12000);
    EXPECT_EQ(hash, 0x59ec73689058280cULL) << std::hex << hash;
}

} // namespace
