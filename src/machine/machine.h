#ifndef DMS_MACHINE_MACHINE_H
#define DMS_MACHINE_MACHINE_H

/**
 * @file
 * Machine description for the clustered VLIW architecture of paper
 * section 2: a collection of clusters connected by an inter-cluster
 * network, each with a small set of functional units and a private
 * queue register file (LRF), connected clusters communicating
 * through Communication Queue Register Files (CQRFs). The same
 * description also expresses the unclustered reference machine (one
 * cluster, a conventional multi-read register file, no copy units).
 *
 * The paper evaluates a bidirectional ring; the topology here is a
 * *parameter* of the model (ring, torus mesh, or full crossbar), so
 * alternative interconnects are data rather than code. A machine can
 * also be built from a small declarative text format — see
 * machine/desc.h.
 */

#include <array>
#include <string>
#include <vector>

#include "ir/opcode.h"
#include "support/types.h"

namespace dms {

/**
 * Register-file organization of a machine. Queue files impose the
 * single-use property (copy pre-pass) and communication constraints;
 * the conventional file does not.
 */
enum class RegFileKind : std::uint8_t {
    Conventional,  ///< central multi-ported RF (unclustered baseline)
    Queues,        ///< LRF/CQRF queue files (the paper's proposal)
};

/** Inter-cluster network shape. */
enum class TopologyKind : std::uint8_t {
    Ring,      ///< bidirectional ring (the paper's configuration)
    Mesh,      ///< 2-D torus mesh, dimension-order routed
    Crossbar,  ///< full crossbar: every pair directly connected
};

/** Lower-case topology mnemonic, e.g. "ring". */
const char *topologyName(TopologyKind kind);

/**
 * One directed inter-cluster link of the network: the boundary a
 * value crosses when a producer in @c src feeds a consumer in
 * @c dst one hop away. Each link carries its own CQRF, so queue
 * register allocation is per-link rather than per-ring-direction.
 */
struct InterClusterLink
{
    ClusterId src = kInvalidCluster;
    ClusterId dst = kInvalidCluster;
};

inline bool
operator==(const InterClusterLink &a, const InterClusterLink &b)
{
    return a.src == b.src && a.dst == b.dst;
}

/** Machine configuration and topology. */
class MachineModel
{
  public:
    /**
     * The paper's clustered configuration: @p clusters clusters in a
     * ring, each with 1 L/S + 1 ADD + 1 MUL plus @p copy_fus copy
     * units (1 in the paper; more models the "additional hardware
     * support" the conclusions suggest).
     */
    static MachineModel clusteredRing(int clusters, int copy_fus = 1);

    /**
     * Unclustered machine of equal width: a single cluster holding
     * @p width_clusters of each useful FU, a conventional register
     * file, no copy units, no communication constraints.
     */
    static MachineModel unclustered(int width_clusters);

    /**
     * Fully general constructor behind the declarative description:
     * any cluster count, register-file kind, per-cluster FU mix and
     * topology. For @c TopologyKind::Mesh, @p mesh_rows x
     * @p mesh_cols must equal @p clusters; the dims are ignored for
     * other topologies. Panics on invalid shapes (the text parser in
     * machine/desc.h validates first and reports line numbers).
     */
    static MachineModel custom(int clusters, RegFileKind rf_kind,
                               const std::array<int, kNumFuClasses>
                                   &fus_per_cluster,
                               TopologyKind topology =
                                   TopologyKind::Ring,
                               int mesh_rows = 0, int mesh_cols = 0);

    /** @name Shape */
    /// @{
    int numClusters() const { return num_clusters_; }
    bool clustered() const { return rf_kind_ == RegFileKind::Queues; }
    RegFileKind regFileKind() const { return rf_kind_; }

    /** FUs of one class inside one cluster. Inline: hit on every
     * reservation-table probe of the scheduler inner loop. */
    int
    fusPerCluster(FuClass cls) const
    {
        return fus_per_cluster_[static_cast<int>(cls)];
    }

    /** Total FUs of one class across the machine. */
    int totalFus(FuClass cls) const;

    /** Total useful FUs (excludes copy units), the paper's x-axis. */
    int usefulFuCount() const;

    /** Optional name from the machine description ("" if unnamed). */
    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }
    /// @}

    /** @name Latencies */
    /// @{
    const LatencyModel &latency() const { return lat_; }
    LatencyModel &latency() { return lat_; }
    int latencyOf(Opcode opc) const { return lat_.of(opc); }
    /// @}

    /** @name Topology */
    /// @{

    TopologyKind topology() const { return topo_; }
    int meshRows() const { return mesh_rows_; }
    int meshCols() const { return mesh_cols_; }

    /** Minimal hop count between clusters. */
    int distance(ClusterId a, ClusterId b) const;

    /**
     * Directly connected: same cluster or network neighbours. A flow
     * dependence between directly connected clusters needs no move
     * operations (it maps onto the LRF or one CQRF).
     */
    bool directlyConnected(ClusterId a, ClusterId b) const;

    /**
     * Deterministic route alternatives between two clusters (paper
     * figure 3 shows the ring's two options). Every topology offers
     * kNumRoutes candidate routes; some may coincide.
     *
     *  - ring: route 0 walks direction +1, route 1 direction -1;
     *  - mesh: route 0 is column-first, route 1 row-first
     *    dimension-order (torus-shortest per dimension, ties +1);
     *  - crossbar: both routes are the direct hop (no intermediates).
     */
    static constexpr int kNumRoutes = 2;

    /** Hops a route takes from @p a to @p b. */
    int routeLength(ClusterId a, ClusterId b, int route) const;

    /**
     * Clusters strictly between @p a and @p b along @p route — the
     * clusters whose copy units must host the move operations of a
     * chain from a producer in @p a to a consumer in @p b. Written
     * into @p out (cleared first); allocation-free when @p out has
     * capacity.
     */
    void routeBetween(ClusterId a, ClusterId b, int route,
                      std::vector<ClusterId> &out) const;

    /**
     * @name Directed inter-cluster links
     *
     * Every topology enumerates its one-hop links in a fixed,
     * deterministic order: cluster-major, @c linksPerCluster()
     * slots per source cluster. Link ids index the per-link CQRFs
     * of queue register allocation.
     *
     *  - ring: slot 0 walks +1, slot 1 walks -1, so link
     *    2c / 2c+1 is exactly the legacy "CQRF+ / CQRF- of
     *    cluster c" layout (kept even when the two slots coincide
     *    on tiny rings);
     *  - mesh: per source, the distinct torus neighbours in order
     *    column +1, column -1, row +1, row -1 (dimensions of size
     *    1 contribute no link, size 2 a single one);
     *  - crossbar: per source, every other cluster by ascending id.
     */
    /// @{

    /** Directed one-hop links leaving each cluster (uniform). */
    int linksPerCluster() const;

    /** Total directed links; CQRF count of the machine. */
    int numLinks() const
    {
        return num_clusters_ * linksPerCluster();
    }

    /** Endpoints of link @p id. */
    InterClusterLink linkAt(int id) const;

    /**
     * Link id from @p src to @p dst, or -1 when the clusters are
     * not distinct one-hop neighbours. When two slots of @p src
     * reach the same @p dst (2-cluster ring), the first slot wins —
     * matching the legacy "+1 direction first" file choice.
     */
    int linkBetween(ClusterId src, ClusterId dst) const;

    /// @}
    /** @name Ring-specific queries (assert TopologyKind::Ring) */
    /// @{

    /** Hops from @p a to @p b walking in @p dir (+1 or -1). */
    int hopsAlong(ClusterId a, ClusterId b, int dir) const;

    /** Next cluster from @p c walking in @p dir (+1 or -1). */
    ClusterId neighbor(ClusterId c, int dir) const;

    /**
     * Ring form of routeBetween: clusters strictly between @p a and
     * @p b walking in @p dir (+1 or -1), written into @p out.
     */
    void pathBetween(ClusterId a, ClusterId b, int dir,
                     std::vector<ClusterId> &out) const;
    /// @}

    /** Human-readable description, e.g. "4-cluster ring (12 FUs)". */
    std::string describe() const;

  private:
    MachineModel() = default;

    int num_clusters_ = 1;
    RegFileKind rf_kind_ = RegFileKind::Conventional;
    TopologyKind topo_ = TopologyKind::Ring;
    int mesh_rows_ = 1;
    int mesh_cols_ = 1;
    std::array<int, kNumFuClasses> fus_per_cluster_ = {1, 1, 1, 0};
    LatencyModel lat_;
    std::string name_;
};

/**
 * Structural equality (shape, topology, latencies and name) — what
 * the description round-trip tests compare.
 */
bool operator==(const MachineModel &a, const MachineModel &b);
inline bool
operator!=(const MachineModel &a, const MachineModel &b)
{
    return !(a == b);
}

} // namespace dms

#endif // DMS_MACHINE_MACHINE_H
