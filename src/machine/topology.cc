/**
 * @file
 * Topology queries of the machine model. The paper's machine is a
 * bidirectional ring; mesh (2-D torus, dimension-order routed) and
 * full-crossbar variants are expressed by the same API so that the
 * interconnect is configuration data, not scheduler code. Every
 * topology answers distance / direct-connectivity queries plus
 * kNumRoutes deterministic route alternatives (what DMS strategy 2
 * chooses between).
 */

#include <algorithm>

#include "machine/machine.h"
#include "support/diag.h"

namespace dms {

namespace {

/** Torus hop count along one dimension of size n. */
int
torusDelta(int a, int b, int n)
{
    int d = std::abs(a - b);
    return std::min(d, n - d);
}

/**
 * Step direction (+1/-1) that shortens |from -> to| on a torus
 * dimension of size n, ties toward +1.
 */
int
torusStep(int from, int to, int n)
{
    int fwd = ((to - from) % n + n) % n;
    int bwd = ((from - to) % n + n) % n;
    return fwd <= bwd ? +1 : -1;
}

/**
 * Distinct one-hop neighbours along a torus dimension of size n:
 * none for n=1, one for n=2 (+1 and -1 coincide), two otherwise.
 */
int
torusNeighbours(int n)
{
    return n >= 3 ? 2 : n - 1;
}

} // namespace

int
MachineModel::distance(ClusterId a, ClusterId b) const
{
    DMS_ASSERT(a >= 0 && a < num_clusters_, "bad cluster %d", a);
    DMS_ASSERT(b >= 0 && b < num_clusters_, "bad cluster %d", b);
    switch (topo_) {
      case TopologyKind::Ring:
        return torusDelta(a, b, num_clusters_);
      case TopologyKind::Mesh: {
        int ra = a / mesh_cols_, ca = a % mesh_cols_;
        int rb = b / mesh_cols_, cb = b % mesh_cols_;
        return torusDelta(ra, rb, mesh_rows_) +
               torusDelta(ca, cb, mesh_cols_);
      }
      case TopologyKind::Crossbar:
        return a == b ? 0 : 1;
    }
    panic("bad topology kind %d", static_cast<int>(topo_));
}

bool
MachineModel::directlyConnected(ClusterId a, ClusterId b) const
{
    return distance(a, b) <= 1;
}

int
MachineModel::hopsAlong(ClusterId a, ClusterId b, int dir) const
{
    DMS_ASSERT(topo_ == TopologyKind::Ring,
               "hopsAlong is a ring query (topology is %s)",
               topologyName(topo_));
    DMS_ASSERT(dir == 1 || dir == -1, "bad direction %d", dir);
    DMS_ASSERT(a >= 0 && a < num_clusters_, "bad cluster %d", a);
    DMS_ASSERT(b >= 0 && b < num_clusters_, "bad cluster %d", b);
    int delta = dir > 0 ? b - a : a - b;
    return ((delta % num_clusters_) + num_clusters_) % num_clusters_;
}

ClusterId
MachineModel::neighbor(ClusterId c, int dir) const
{
    DMS_ASSERT(topo_ == TopologyKind::Ring,
               "neighbor is a ring query (topology is %s)",
               topologyName(topo_));
    DMS_ASSERT(dir == 1 || dir == -1, "bad direction %d", dir);
    int n = (c + dir + num_clusters_) % num_clusters_;
    return static_cast<ClusterId>(n);
}

void
MachineModel::pathBetween(ClusterId a, ClusterId b, int dir,
                          std::vector<ClusterId> &out) const
{
    out.clear();
    int hops = hopsAlong(a, b, dir);
    ClusterId c = a;
    for (int i = 1; i < hops; ++i) {
        c = neighbor(c, dir);
        out.push_back(c);
    }
}

int
MachineModel::linksPerCluster() const
{
    switch (topo_) {
      case TopologyKind::Ring:
        // Always two slots (+1 and -1), even on rings small enough
        // for them to coincide: the 2c/2c+1 CQRF layout of the ring
        // machine is part of the allocation's stable output.
        return 2;
      case TopologyKind::Mesh:
        return torusNeighbours(mesh_rows_) +
               torusNeighbours(mesh_cols_);
      case TopologyKind::Crossbar:
        return num_clusters_ - 1;
    }
    panic("bad topology kind %d", static_cast<int>(topo_));
}

InterClusterLink
MachineModel::linkAt(int id) const
{
    DMS_ASSERT(id >= 0 && id < numLinks(), "bad link %d", id);
    const int per = linksPerCluster();
    const ClusterId src = static_cast<ClusterId>(id / per);
    int slot = id % per;
    switch (topo_) {
      case TopologyKind::Ring:
        return {src, neighbor(src, slot == 0 ? +1 : -1)};
      case TopologyKind::Mesh: {
        const int r = src / mesh_cols_, c = src % mesh_cols_;
        const int col_slots = torusNeighbours(mesh_cols_);
        if (slot < col_slots) {
            int step = slot == 0 ? +1 : -1;
            int nc = ((c + step) % mesh_cols_ + mesh_cols_) %
                     mesh_cols_;
            return {src,
                    static_cast<ClusterId>(r * mesh_cols_ + nc)};
        }
        slot -= col_slots;
        int step = slot == 0 ? +1 : -1;
        int nr =
            ((r + step) % mesh_rows_ + mesh_rows_) % mesh_rows_;
        return {src, static_cast<ClusterId>(nr * mesh_cols_ + c)};
      }
      case TopologyKind::Crossbar:
        return {src,
                static_cast<ClusterId>(slot < src ? slot : slot + 1)};
    }
    panic("bad topology kind %d", static_cast<int>(topo_));
}

int
MachineModel::linkBetween(ClusterId src, ClusterId dst) const
{
    DMS_ASSERT(src >= 0 && src < num_clusters_, "bad cluster %d",
               src);
    DMS_ASSERT(dst >= 0 && dst < num_clusters_, "bad cluster %d",
               dst);
    if (src == dst)
        return -1;
    const int per = linksPerCluster();
    for (int slot = 0; slot < per; ++slot) {
        int id = src * per + slot;
        if (linkAt(id).dst == dst)
            return id;
    }
    return -1;
}

int
MachineModel::routeLength(ClusterId a, ClusterId b, int route) const
{
    DMS_ASSERT(route >= 0 && route < kNumRoutes, "bad route %d",
               route);
    switch (topo_) {
      case TopologyKind::Ring:
        return hopsAlong(a, b, route == 0 ? +1 : -1);
      case TopologyKind::Mesh:
        // Dimension-order routes are torus-shortest per dimension,
        // so both alternatives have minimal total length.
        return distance(a, b);
      case TopologyKind::Crossbar:
        return distance(a, b);
    }
    panic("bad topology kind %d", static_cast<int>(topo_));
}

void
MachineModel::routeBetween(ClusterId a, ClusterId b, int route,
                           std::vector<ClusterId> &out) const
{
    DMS_ASSERT(route >= 0 && route < kNumRoutes, "bad route %d",
               route);
    switch (topo_) {
      case TopologyKind::Ring:
        pathBetween(a, b, route == 0 ? +1 : -1, out);
        return;
      case TopologyKind::Mesh: {
        out.clear();
        DMS_ASSERT(a >= 0 && a < num_clusters_, "bad cluster %d", a);
        DMS_ASSERT(b >= 0 && b < num_clusters_, "bad cluster %d", b);
        int r = a / mesh_cols_, c = a % mesh_cols_;
        const int rb = b / mesh_cols_, cb = b % mesh_cols_;
        // Route 0 resolves columns first, route 1 rows first; each
        // dimension walks its torus-shortest direction (ties +1).
        for (int phase = 0; phase < 2; ++phase) {
            bool cols_now = (route == 0) == (phase == 0);
            if (cols_now) {
                int step = torusStep(c, cb, mesh_cols_);
                while (c != cb) {
                    c = ((c + step) % mesh_cols_ + mesh_cols_) %
                        mesh_cols_;
                    if (r != rb || c != cb)
                        out.push_back(r * mesh_cols_ + c);
                }
            } else {
                int step = torusStep(r, rb, mesh_rows_);
                while (r != rb) {
                    r = ((r + step) % mesh_rows_ + mesh_rows_) %
                        mesh_rows_;
                    if (r != rb || c != cb)
                        out.push_back(r * mesh_cols_ + c);
                }
            }
        }
        return;
      }
      case TopologyKind::Crossbar:
        // Everything is directly connected; no intermediate hops.
        out.clear();
        return;
    }
    panic("bad topology kind %d", static_cast<int>(topo_));
}

} // namespace dms
