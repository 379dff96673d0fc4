#include "sched/verifier.h"

#include <algorithm>

#include "support/diag.h"

namespace dms {

namespace {

/**
 * True if a path of live Move ops leads from the producer of the
 * replaced edge @p e to its consumer along active flow edges (the
 * endpoints themselves need not be moves). @p seen (one entry per
 * op, stamped with the edge searched for) and @p stack are scratch
 * shared by every replaced edge of one verification.
 */
bool
movePathExists(const Ddg &ddg, EdgeId e, std::vector<EdgeId> &seen,
               std::vector<OpId> &stack)
{
    const OpId src = ddg.edge(e).src;
    const OpId dst = ddg.edge(e).dst;
    if (seen.empty())
        seen.assign(static_cast<size_t>(ddg.numOps()), kInvalidEdge);
    stack.assign(1, src);
    seen[static_cast<size_t>(src)] = e;
    while (!stack.empty()) {
        OpId u = stack.back();
        stack.pop_back();
        for (EdgeId out : ddg.op(u).outs) {
            if (!ddg.edgeActive(out) ||
                ddg.edge(out).kind != DepKind::Flow) {
                continue;
            }
            OpId v = ddg.edge(out).dst;
            if (v == dst)
                return true;
            if (seen[static_cast<size_t>(v)] != e &&
                ddg.op(v).origin == OpOrigin::MoveOp) {
                seen[static_cast<size_t>(v)] = e;
                stack.push_back(v);
            }
        }
    }
    return false;
}

} // namespace

std::vector<std::string>
verifySchedule(const Ddg &ddg, const MachineModel &machine,
               const PartialSchedule &ps, const VerifyOptions &opts)
{
    std::vector<std::string> problems;
    auto complain = [&](std::string s) {
        problems.push_back(std::move(s));
    };
    const int ii = ps.ii();
    const bool comm = opts.checkCommunication && machine.clustered();

    // Placements and reservation consistency. One flat
    // (cluster, class, instance, row) table keeps each slot's first
    // occupant; a later op in the same slot is a collision.
    size_t instances = 0;
    for (int c = 0; c < kNumFuClasses; ++c)
        instances = std::max(instances,
                             static_cast<size_t>(machine.fusPerCluster(
                                 static_cast<FuClass>(c))));
    const size_t per_class = instances * static_cast<size_t>(ii);
    const size_t per_cluster = kNumFuClasses * per_class;
    std::vector<OpId> slots(
        static_cast<size_t>(machine.numClusters()) * per_cluster,
        kInvalidOp);
    for (OpId id = 0; id < ddg.numOps(); ++id) {
        if (!ddg.opLive(id))
            continue;
        if (!ps.isScheduled(id)) {
            if (opts.requireComplete)
                complain(strfmt("%s not scheduled",
                                ddg.opLabel(id).c_str()));
            continue;
        }
        const Placement &p = ps.placement(id);
        if (p.time < 0)
            complain(strfmt("%s at negative time %d",
                            ddg.opLabel(id).c_str(), p.time));
        if (p.cluster < 0 || p.cluster >= machine.numClusters()) {
            complain(strfmt("%s in bad cluster %d",
                            ddg.opLabel(id).c_str(), p.cluster));
            continue;
        }
        FuClass cls = fuClassOf(ddg.op(id).opc);
        if (p.fuInstance < 0 ||
            p.fuInstance >= machine.fusPerCluster(cls)) {
            complain(strfmt("%s on bad FU instance %d",
                            ddg.opLabel(id).c_str(), p.fuInstance));
            continue;
        }
        const int row = p.time % ii;
        // at() panics on a row outside [0, II), so the flat index
        // below is in range.
        const OpId rt_occ =
            ps.reservations().at(p.cluster, cls, p.fuInstance, row);
        OpId &first =
            slots[static_cast<size_t>(p.cluster) * per_cluster +
                  static_cast<size_t>(cls) * per_class +
                  static_cast<size_t>(p.fuInstance) *
                      static_cast<size_t>(ii) +
                  static_cast<size_t>(row)];
        if (first == kInvalidOp) {
            first = id;
        } else {
            complain(strfmt("%s and %s share slot (c%d,%s,%d,row%d)",
                            ddg.opLabel(id).c_str(),
                            ddg.opLabel(first).c_str(), p.cluster,
                            fuClassName(cls), p.fuInstance, row));
        }
        if (rt_occ != id) {
            complain(strfmt("reservation table holds op%d where %s "
                            "is placed", rt_occ,
                            ddg.opLabel(id).c_str()));
        }
    }

    // Dependences.
    for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
        if (!ddg.edgeActive(e))
            continue;
        const Edge &ed = ddg.edge(e);
        if (!ps.isScheduled(ed.src) || !ps.isScheduled(ed.dst))
            continue;
        Cycle lhs = ps.timeOf(ed.dst);
        Cycle rhs = ps.timeOf(ed.src) + ed.latency -
                    ii * ed.distance;
        if (lhs < rhs) {
            complain(strfmt("edge %s->%s (%s,d=%d,l=%d) violated: "
                            "%d < %d",
                            ddg.opLabel(ed.src).c_str(),
                            ddg.opLabel(ed.dst).c_str(),
                            depKindName(ed.kind), ed.distance,
                            ed.latency, lhs, rhs));
        }
    }

    if (!comm)
        return problems;

    // Communication legality on queue-file machines.
    std::vector<EdgeId> seen;
    std::vector<OpId> stack;
    for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
        if (!ddg.edgeLive(e))
            continue;
        const Edge &ed = ddg.edge(e);
        if (ed.kind != DepKind::Flow)
            continue;
        if (!ps.isScheduled(ed.src) || !ps.isScheduled(ed.dst))
            continue;
        ClusterId cs = ps.clusterOf(ed.src);
        ClusterId cd = ps.clusterOf(ed.dst);
        if (ed.replaced) {
            if (!movePathExists(ddg, e, seen, stack)) {
                complain(strfmt("replaced edge %s->%s has no live "
                                "move chain",
                                ddg.opLabel(ed.src).c_str(),
                                ddg.opLabel(ed.dst).c_str()));
            }
            continue;
        }
        if (!machine.directlyConnected(cs, cd)) {
            complain(strfmt("flow edge %s(c%d)->%s(c%d) spans "
                            "distance %d",
                            ddg.opLabel(ed.src).c_str(), cs,
                            ddg.opLabel(ed.dst).c_str(), cd,
                            machine.distance(cs, cd)));
        }
    }

    // Move discipline: one producer, one consumer, strict one-hop.
    for (OpId id = 0; id < ddg.numOps(); ++id) {
        if (!ddg.opLive(id) ||
            ddg.op(id).origin != OpOrigin::MoveOp) {
            continue;
        }
        int flow_in = 0;
        int flow_out = 0;
        for (EdgeId e : ddg.op(id).ins) {
            if (ddg.edgeActive(e) &&
                ddg.edge(e).kind == DepKind::Flow) {
                ++flow_in;
                if (ps.isScheduled(id) &&
                    ps.isScheduled(ddg.edge(e).src) &&
                    machine.distance(
                        ps.clusterOf(ddg.edge(e).src),
                        ps.clusterOf(id)) != 1) {
                    complain(strfmt("%s not one hop from its "
                                    "producer",
                                    ddg.opLabel(id).c_str()));
                }
            }
        }
        for (EdgeId e : ddg.op(id).outs) {
            if (ddg.edgeActive(e) &&
                ddg.edge(e).kind == DepKind::Flow) {
                ++flow_out;
                if (ps.isScheduled(id) &&
                    ps.isScheduled(ddg.edge(e).dst) &&
                    machine.distance(
                        ps.clusterOf(id),
                        ps.clusterOf(ddg.edge(e).dst)) != 1) {
                    complain(strfmt("%s not one hop from its "
                                    "consumer",
                                    ddg.opLabel(id).c_str()));
                }
            }
        }
        if (flow_in != 1 || flow_out != 1) {
            complain(strfmt("%s has %d flow ins / %d flow outs",
                            ddg.opLabel(id).c_str(), flow_in,
                            flow_out));
        }
    }

    return problems;
}

void
checkSchedule(const Ddg &ddg, const MachineModel &machine,
              const PartialSchedule &ps, const VerifyOptions &opts)
{
    auto problems = verifySchedule(ddg, machine, ps, opts);
    if (!problems.empty()) {
        panic("illegal schedule (%zu problems): %s", problems.size(),
              problems.front().c_str());
    }
}

} // namespace dms
