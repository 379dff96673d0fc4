/**
 * @file
 * Machine model: presets, ring topology, and the modulo
 * reservation table.
 */

#include <vector>

#include <gtest/gtest.h>

#include "machine/machine.h"
#include "machine/reservation.h"

namespace dms {
namespace {

TEST(MachineModel, ClusteredPreset)
{
    MachineModel m = MachineModel::clusteredRing(4);
    EXPECT_TRUE(m.clustered());
    EXPECT_EQ(m.numClusters(), 4);
    EXPECT_EQ(m.fusPerCluster(FuClass::LdSt), 1);
    EXPECT_EQ(m.fusPerCluster(FuClass::Add), 1);
    EXPECT_EQ(m.fusPerCluster(FuClass::Mul), 1);
    EXPECT_EQ(m.fusPerCluster(FuClass::Copy), 1);
    EXPECT_EQ(m.usefulFuCount(), 12);
    EXPECT_EQ(m.totalFus(FuClass::Copy), 4);
}

TEST(MachineModel, UnclusteredPreset)
{
    MachineModel m = MachineModel::unclustered(5);
    EXPECT_FALSE(m.clustered());
    EXPECT_EQ(m.numClusters(), 1);
    EXPECT_EQ(m.fusPerCluster(FuClass::LdSt), 5);
    EXPECT_EQ(m.fusPerCluster(FuClass::Copy), 0);
    EXPECT_EQ(m.usefulFuCount(), 15);
}

TEST(MachineModel, ExtraCopyUnits)
{
    MachineModel m = MachineModel::clusteredRing(3, 2);
    EXPECT_EQ(m.fusPerCluster(FuClass::Copy), 2);
    EXPECT_EQ(m.usefulFuCount(), 9); // copies are not useful FUs
}

TEST(Topology, RingDistance)
{
    MachineModel m = MachineModel::clusteredRing(6);
    EXPECT_EQ(m.distance(0, 0), 0);
    EXPECT_EQ(m.distance(0, 1), 1);
    EXPECT_EQ(m.distance(0, 5), 1);
    EXPECT_EQ(m.distance(0, 2), 2);
    EXPECT_EQ(m.distance(0, 3), 3);
    EXPECT_EQ(m.distance(1, 4), 3);
    EXPECT_EQ(m.distance(2, 5), 3);
}

TEST(Topology, SmallRingsAllAdjacent)
{
    // 2 and 3 cluster rings have no indirectly-connected pairs —
    // the paper's observation that their only overhead is copies.
    for (int c : {1, 2, 3}) {
        MachineModel m = MachineModel::clusteredRing(c);
        for (ClusterId a = 0; a < c; ++a) {
            for (ClusterId b = 0; b < c; ++b)
                EXPECT_TRUE(m.directlyConnected(a, b));
        }
    }
    MachineModel m4 = MachineModel::clusteredRing(4);
    EXPECT_FALSE(m4.directlyConnected(0, 2));
}

TEST(Topology, HopsAlongDirections)
{
    MachineModel m = MachineModel::clusteredRing(5);
    EXPECT_EQ(m.hopsAlong(1, 3, +1), 2);
    EXPECT_EQ(m.hopsAlong(1, 3, -1), 3);
    EXPECT_EQ(m.hopsAlong(3, 1, +1), 3);
    EXPECT_EQ(m.hopsAlong(3, 1, -1), 2);
    EXPECT_EQ(m.hopsAlong(2, 2, +1), 0);
}

TEST(Topology, Neighbors)
{
    MachineModel m = MachineModel::clusteredRing(4);
    EXPECT_EQ(m.neighbor(0, +1), 1);
    EXPECT_EQ(m.neighbor(3, +1), 0);
    EXPECT_EQ(m.neighbor(0, -1), 3);
    EXPECT_EQ(m.neighbor(2, -1), 1);
}

TEST(Topology, PathBetweenExcludesEndpoints)
{
    MachineModel m = MachineModel::clusteredRing(6);
    std::vector<ClusterId> p;
    m.pathBetween(1, 4, +1, p); // 1 -> 2 -> 3 -> 4
    ASSERT_EQ(p.size(), 2u);
    EXPECT_EQ(p[0], 2);
    EXPECT_EQ(p[1], 3);

    m.pathBetween(1, 4, -1, p); // 1 -> 0 -> 5 -> 4
    ASSERT_EQ(p.size(), 2u);
    EXPECT_EQ(p[0], 0);
    EXPECT_EQ(p[1], 5);

    m.pathBetween(2, 3, +1, p);
    EXPECT_TRUE(p.empty()); // adjacent
    m.pathBetween(2, 2, +1, p);
    EXPECT_TRUE(p.empty()); // same
}

TEST(Topology, TheTwoChainOptionsOfFigure3)
{
    // Producer in cluster 0, consumer in cluster 3 of an 8-ring:
    // option 1 goes through 1,2 (two moves); option 2 through
    // 7,6,5,4 (four moves).
    MachineModel m = MachineModel::clusteredRing(8);
    std::vector<ClusterId> path;
    m.pathBetween(0, 3, +1, path);
    EXPECT_EQ(path.size(), 2u);
    m.pathBetween(0, 3, -1, path);
    EXPECT_EQ(path.size(), 4u);
}

TEST(Links, RingLayoutMatchesLegacyDirections)
{
    // The ring's link ids are the legacy CQRF layout: 2c toward
    // neighbor(c, +1), 2c+1 toward neighbor(c, -1).
    for (int clusters : {2, 4, 8}) {
        MachineModel m = MachineModel::clusteredRing(clusters);
        EXPECT_EQ(m.linksPerCluster(), 2);
        EXPECT_EQ(m.numLinks(), 2 * clusters);
        for (ClusterId c = 0; c < clusters; ++c) {
            EXPECT_EQ(m.linkAt(2 * c).src, c);
            EXPECT_EQ(m.linkAt(2 * c).dst, m.neighbor(c, +1));
            EXPECT_EQ(m.linkAt(2 * c + 1).src, c);
            EXPECT_EQ(m.linkAt(2 * c + 1).dst, m.neighbor(c, -1));
            EXPECT_EQ(m.linkBetween(c, m.neighbor(c, +1)), 2 * c);
        }
    }
    // On a 2-ring both slots reach the same neighbour; the +1 slot
    // wins, exactly like the legacy direction choice.
    MachineModel two = MachineModel::clusteredRing(2);
    EXPECT_EQ(two.linkAt(0).dst, 1);
    EXPECT_EQ(two.linkAt(1).dst, 1);
    EXPECT_EQ(two.linkBetween(0, 1), 0);
    EXPECT_EQ(two.linkBetween(1, 0), 2);
}

TEST(Links, MeshLinksAreTheDistinctTorusNeighbours)
{
    MachineModel m = MachineModel::custom(
        9, RegFileKind::Queues, {1, 1, 1, 1}, TopologyKind::Mesh,
        3, 3);
    EXPECT_EQ(m.linksPerCluster(), 4);
    EXPECT_EQ(m.numLinks(), 36);
    // Every link is one hop; every one-hop ordered pair has
    // exactly one link.
    int found = 0;
    for (int id = 0; id < m.numLinks(); ++id) {
        InterClusterLink l = m.linkAt(id);
        EXPECT_EQ(m.distance(l.src, l.dst), 1);
        EXPECT_EQ(m.linkBetween(l.src, l.dst), id);
        ++found;
    }
    int adjacent = 0;
    for (ClusterId a = 0; a < 9; ++a)
        for (ClusterId b = 0; b < 9; ++b)
            adjacent += a != b && m.distance(a, b) == 1;
    EXPECT_EQ(found, adjacent);

    // Dimensions of size 2 fold the +1/-1 neighbours into one
    // link; size 1 contributes none.
    MachineModel narrow = MachineModel::custom(
        6, RegFileKind::Queues, {1, 1, 1, 1}, TopologyKind::Mesh,
        2, 3);
    EXPECT_EQ(narrow.linksPerCluster(), 3);
    MachineModel row = MachineModel::custom(
        4, RegFileKind::Queues, {1, 1, 1, 1}, TopologyKind::Mesh,
        1, 4);
    EXPECT_EQ(row.linksPerCluster(), 2);
    MachineModel pair = MachineModel::custom(
        2, RegFileKind::Queues, {1, 1, 1, 1}, TopologyKind::Mesh,
        1, 2);
    EXPECT_EQ(pair.linksPerCluster(), 1);
    EXPECT_EQ(pair.linkBetween(0, 1), 0);
    EXPECT_EQ(pair.linkBetween(1, 0), 1);
}

TEST(Links, CrossbarLinksCoverEveryOrderedPair)
{
    MachineModel m = MachineModel::custom(
        5, RegFileKind::Queues, {1, 1, 1, 1},
        TopologyKind::Crossbar);
    EXPECT_EQ(m.linksPerCluster(), 4);
    EXPECT_EQ(m.numLinks(), 20);
    for (ClusterId a = 0; a < 5; ++a) {
        EXPECT_EQ(m.linkBetween(a, a), -1);
        for (ClusterId b = 0; b < 5; ++b) {
            if (a == b)
                continue;
            int id = m.linkBetween(a, b);
            ASSERT_GE(id, 0);
            EXPECT_EQ(m.linkAt(id).src, a);
            EXPECT_EQ(m.linkAt(id).dst, b);
        }
    }
}

TEST(Reservation, PlaceAndClear)
{
    MachineModel m = MachineModel::clusteredRing(2);
    ReservationTable rt(m, 3);
    EXPECT_EQ(rt.at(0, FuClass::Add, 0, 1), kInvalidOp);
    EXPECT_TRUE(rt.hasFree(0, FuClass::Add, 1));
    rt.place(7, 0, FuClass::Add, 0, 1);
    EXPECT_EQ(rt.at(0, FuClass::Add, 0, 1), 7);
    EXPECT_FALSE(rt.hasFree(0, FuClass::Add, 1));
    EXPECT_TRUE(rt.hasFree(0, FuClass::Add, 0));
    EXPECT_TRUE(rt.hasFree(1, FuClass::Add, 1));
    rt.clear(7, 0, FuClass::Add, 0, 1);
    EXPECT_TRUE(rt.hasFree(0, FuClass::Add, 1));
}

TEST(Reservation, FreeInstanceWithMultipleUnits)
{
    MachineModel m = MachineModel::clusteredRing(1, 3);
    ReservationTable rt(m, 2);
    EXPECT_EQ(rt.freeInstance(0, FuClass::Copy, 0), 0);
    rt.place(1, 0, FuClass::Copy, 0, 0);
    EXPECT_EQ(rt.freeInstance(0, FuClass::Copy, 0), 1);
    rt.place(2, 0, FuClass::Copy, 1, 0);
    EXPECT_EQ(rt.freeInstance(0, FuClass::Copy, 0), 2);
    rt.place(3, 0, FuClass::Copy, 2, 0);
    EXPECT_EQ(rt.freeInstance(0, FuClass::Copy, 0), -1);
}

TEST(Reservation, FreeSlotCountTracksPlacement)
{
    MachineModel m = MachineModel::clusteredRing(4);
    ReservationTable rt(m, 5);
    EXPECT_EQ(rt.freeSlotCount(2, FuClass::Copy), 5);
    rt.place(9, 2, FuClass::Copy, 0, 3);
    EXPECT_EQ(rt.freeSlotCount(2, FuClass::Copy), 4);
    EXPECT_EQ(rt.freeSlotCount(1, FuClass::Copy), 5);
}

TEST(Reservation, Occupants)
{
    MachineModel m = MachineModel::unclustered(2);
    ReservationTable rt(m, 2);
    rt.place(4, 0, FuClass::Mul, 0, 1);
    rt.place(5, 0, FuClass::Mul, 1, 1);
    auto occ = rt.occupants(0, FuClass::Mul, 1);
    ASSERT_EQ(occ.size(), 2u);
    EXPECT_EQ(occ[0], 4);
    EXPECT_EQ(occ[1], 5);
    EXPECT_TRUE(rt.occupants(0, FuClass::Mul, 0).empty());
}

TEST(MachineModel, Describe)
{
    EXPECT_NE(MachineModel::clusteredRing(4).describe().find(
                  "4-cluster"),
              std::string::npos);
    EXPECT_NE(MachineModel::unclustered(4).describe().find(
                  "unclustered"),
              std::string::npos);
}

} // namespace
} // namespace dms
