#include "sched/verifier.h"

#include <map>
#include <tuple>

#include "support/diag.h"

namespace dms {

namespace {

/**
 * True if a path of live Move ops leads from @p src to @p dst along
 * active flow edges (src and dst themselves need not be moves).
 */
bool
movePathExists(const Ddg &ddg, OpId src, OpId dst)
{
    std::vector<OpId> stack{src};
    std::vector<bool> seen(static_cast<size_t>(ddg.numOps()), false);
    seen[static_cast<size_t>(src)] = true;
    while (!stack.empty()) {
        OpId u = stack.back();
        stack.pop_back();
        for (EdgeId e : ddg.op(u).outs) {
            if (!ddg.edgeActive(e) ||
                ddg.edge(e).kind != DepKind::Flow) {
                continue;
            }
            OpId v = ddg.edge(e).dst;
            if (v == dst)
                return true;
            if (!seen[static_cast<size_t>(v)] &&
                ddg.op(v).origin == OpOrigin::MoveOp) {
                seen[static_cast<size_t>(v)] = true;
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

    // Placements and reservation consistency.
    std::map<std::tuple<ClusterId, int, int, int>, OpId> slots;
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
        auto key = std::make_tuple(p.cluster,
                                   static_cast<int>(cls),
                                   p.fuInstance, p.time % ii);
        auto [it, inserted] = slots.emplace(key, id);
        if (!inserted) {
            complain(strfmt("%s and %s share slot (c%d,%s,%d,row%d)",
                            ddg.opLabel(id).c_str(),
                            ddg.opLabel(it->second).c_str(), p.cluster,
                            fuClassName(cls), p.fuInstance,
                            p.time % ii));
        }
        OpId rt_occ = ps.reservations().at(p.cluster, cls,
                                           p.fuInstance, p.time % ii);
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
            if (!movePathExists(ddg, ed.src, ed.dst)) {
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
