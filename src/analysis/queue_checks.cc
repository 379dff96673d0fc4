/**
 * @file
 * Queue-register-allocation audit. Spans, depths, per-file stats
 * and the aggregate pressure numbers are all recomputed from the
 * schedule times and the lifetime list itself, and queue sharing is
 * re-judged with an operational FIFO-overtake test — none of it
 * calls the allocator or canShareQueue(), so a bug shared with the
 * allocation code cannot hide a bad allocation.
 */

#include <algorithm>
#include <iterator>
#include <map>
#include <vector>

#include "analysis/builtin_checks.h"
#include "support/diag.h"

namespace dms {
namespace lint {

namespace {

bool
wantsQueueAudit(const AnalysisInput &input)
{
    return input.machine != nullptr && input.ddg != nullptr &&
           input.schedule != nullptr && input.queues != nullptr;
}

/** (enter phase, exit phase) of a lifetime under the schedule. */
struct Phases
{
    int enter = 0;
    int exit = 0;
    bool known = false;
};

Phases
phasesOf(const Lifetime &lt, const Ddg &ddg,
         const ScheduleView &view)
{
    Phases p;
    if (!view.scheduled(lt.def) || !view.scheduled(lt.use))
        return p;
    const Edge &edge = ddg.edge(lt.edge);
    p.enter = view.at(lt.def).time + edge.latency;
    p.exit = view.at(lt.use).time + view.ii * edge.distance;
    p.known = true;
    return p;
}

DiagLocation
lifetimeLocation(const Lifetime &lt)
{
    DiagLocation loc;
    loc.edge = lt.edge;
    loc.op = lt.def;
    loc.cluster = lt.cluster;
    loc.link = lt.link;
    return loc;
}

std::string
lifetimeLabel(const Lifetime &lt, const Ddg &ddg)
{
    return strfmt("lifetime %s -> %s",
                  ddg.opLabel(lt.def).c_str(),
                  ddg.opLabel(lt.use).c_str());
}

void
spanMismatch(const Check &self, const AnalysisInput &input,
             DiagnosticSink &sink)
{
    if (!wantsQueueAudit(input))
        return;
    const Ddg &ddg = *input.ddg;
    const ScheduleView &view = *input.schedule;
    for (const Lifetime &lt : input.queues->lifetimes) {
        const Phases p = phasesOf(lt, ddg, view);
        if (!p.known) {
            sink.report(self.id, Severity::Error, self.artifact,
                        lifetimeLocation(lt),
                        lifetimeLabel(lt, ddg) +
                            " references an unscheduled op");
            continue;
        }
        const int span = p.exit - p.enter;
        if (span < 0) {
            sink.report(
                self.id, Severity::Error, self.artifact,
                lifetimeLocation(lt),
                strfmt("%s has negative recomputed span %d "
                       "(value consumed before produced)",
                       lifetimeLabel(lt, ddg).c_str(), span));
            continue;
        }
        const int depth = span / view.ii + 1;
        if (span != lt.span) {
            sink.report(
                self.id, Severity::Error, self.artifact,
                lifetimeLocation(lt),
                strfmt("%s records span %d but schedule times "
                       "give %d",
                       lifetimeLabel(lt, ddg).c_str(), lt.span,
                       span));
        } else if (depth != lt.depth) {
            sink.report(
                self.id, Severity::Error, self.artifact,
                lifetimeLocation(lt),
                strfmt("%s records depth %d but span %d at "
                       "II=%d gives %d",
                       lifetimeLabel(lt, ddg).c_str(), lt.depth,
                       span, view.ii, depth));
        }
    }
}

void
queueLocation(const Check &self, const AnalysisInput &input,
              DiagnosticSink &sink)
{
    if (!wantsQueueAudit(input))
        return;
    const Ddg &ddg = *input.ddg;
    const ScheduleView &view = *input.schedule;
    const MachineModel &machine = *input.machine;
    for (const Lifetime &lt : input.queues->lifetimes) {
        if (!view.scheduled(lt.def) || !view.scheduled(lt.use))
            continue; // queue.span-mismatch reports these
        const ClusterId def_c = view.at(lt.def).cluster;
        const ClusterId use_c = view.at(lt.use).cluster;
        if (lt.location == QueueLocation::Lrf) {
            if (def_c == use_c && lt.cluster == def_c)
                continue;
            sink.report(
                self.id, Severity::Error, self.artifact,
                lifetimeLocation(lt),
                strfmt("%s is allocated in the LRF of cluster "
                       "%d but runs from cluster %d to %d",
                       lifetimeLabel(lt, ddg).c_str(),
                       lt.cluster, def_c, use_c));
            continue;
        }
        const int expected = machine.linkBetween(def_c, use_c);
        if (expected < 0) {
            sink.report(
                self.id, Severity::Error, self.artifact,
                lifetimeLocation(lt),
                strfmt("%s is allocated in a CQRF but clusters "
                       "%d and %d are not one-hop neighbours",
                       lifetimeLabel(lt, ddg).c_str(), def_c,
                       use_c));
        } else if (lt.link != expected || lt.cluster != def_c) {
            sink.report(
                self.id, Severity::Error, self.artifact,
                lifetimeLocation(lt),
                strfmt("%s sits on link %d (writer cluster %d) "
                       "but clusters %d -> %d use link %d",
                       lifetimeLabel(lt, ddg).c_str(), lt.link,
                       lt.cluster, def_c, use_c, expected));
        }
    }
}

void
fileRecount(const Check &self, const AnalysisInput &input,
            DiagnosticSink &sink)
{
    if (!wantsQueueAudit(input))
        return;
    const QueueAllocation &alloc = *input.queues;
    const MachineModel &machine = *input.machine;

    std::vector<QueueFileStats> lrf(
        static_cast<size_t>(machine.numClusters()));
    std::vector<QueueFileStats> cqrf(
        static_cast<size_t>(machine.numLinks()));
    int total_storage = 0;
    for (const Lifetime &lt : alloc.lifetimes) {
        QueueFileStats *file = nullptr;
        if (lt.location == QueueLocation::Lrf) {
            if (lt.cluster >= 0 &&
                lt.cluster < machine.numClusters())
                file = &lrf[static_cast<size_t>(lt.cluster)];
        } else if (lt.link >= 0 &&
                   lt.link < machine.numLinks()) {
            file = &cqrf[static_cast<size_t>(lt.link)];
        }
        if (file == nullptr) {
            sink.report(
                self.id, Severity::Error, self.artifact,
                lifetimeLocation(lt),
                lifetimeLabel(lt, *input.ddg) +
                    " names a register file the machine does "
                    "not have");
            continue;
        }
        file->queues += 1;
        file->maxDepth = std::max(file->maxDepth, lt.depth);
        file->totalDepth += lt.depth;
        total_storage += lt.depth;
    }

    auto reportStats = [&](const QueueFileStats &got,
                           const QueueFileStats &want,
                           const DiagLocation &loc,
                           const char *what, int index) {
        if (got.queues == want.queues &&
            got.maxDepth == want.maxDepth &&
            got.totalDepth == want.totalDepth)
            return;
        sink.report(
            self.id, Severity::Error, self.artifact, loc,
            strfmt("%s %d records %d queues (max depth %d, "
                   "total %d) but the lifetimes need %d (max "
                   "depth %d, total %d)",
                   what, index, got.queues, got.maxDepth,
                   got.totalDepth, want.queues, want.maxDepth,
                   want.totalDepth));
    };

    if (alloc.lrf.size() != lrf.size() ||
        alloc.cqrf.size() != cqrf.size()) {
        sink.report(
            self.id, Severity::Error, self.artifact, DiagLocation(),
            strfmt("allocation has %zu LRFs and %zu CQRFs but "
                   "the machine has %zu clusters and %zu "
                   "links",
                   alloc.lrf.size(), alloc.cqrf.size(),
                   lrf.size(), cqrf.size()));
        return;
    }
    int max_per_file = 0;
    int max_per_link = 0;
    int links_used = 0;
    int files_used = 0;
    for (size_t c = 0; c < lrf.size(); ++c) {
        DiagLocation loc;
        loc.cluster = static_cast<ClusterId>(c);
        reportStats(alloc.lrf[c], lrf[c], loc, "LRF of cluster",
                    static_cast<int>(c));
        max_per_file = std::max(max_per_file, lrf[c].queues);
        files_used += lrf[c].queues > 0 ? 1 : 0;
    }
    for (size_t l = 0; l < cqrf.size(); ++l) {
        DiagLocation loc;
        loc.link = static_cast<int>(l);
        reportStats(alloc.cqrf[l], cqrf[l], loc, "CQRF of link",
                    static_cast<int>(l));
        max_per_file = std::max(max_per_file, cqrf[l].queues);
        max_per_link = std::max(max_per_link, cqrf[l].queues);
        links_used += cqrf[l].queues > 0 ? 1 : 0;
        files_used += cqrf[l].queues > 0 ? 1 : 0;
        if (static_cast<size_t>(l) < alloc.links.size() &&
            !(alloc.links[l] ==
              machine.linkAt(static_cast<int>(l)))) {
            sink.report(
                self.id, Severity::Error, self.artifact, loc,
                strfmt("allocation link %zu is c%d->c%d but "
                       "the machine's link %zu is c%d->c%d",
                       l, alloc.links[l].src,
                       alloc.links[l].dst, l,
                       machine.linkAt(static_cast<int>(l)).src,
                       machine.linkAt(static_cast<int>(l))
                           .dst));
        }
    }

    auto reportAggregate = [&](int got, int want,
                               const char *what) {
        if (got == want)
            return;
        sink.report(self.id, Severity::Error, self.artifact,
                    DiagLocation(),
                    strfmt("allocation records %s=%d but the "
                           "lifetimes give %d",
                           what, got, want));
    };
    reportAggregate(alloc.totalStorage, total_storage,
                    "totalStorage");
    reportAggregate(alloc.maxQueuesPerFile, max_per_file,
                    "maxQueuesPerFile");
    reportAggregate(alloc.maxQueuesPerLink, max_per_link,
                    "maxQueuesPerLink");
    reportAggregate(alloc.linksUsed, links_used, "linksUsed");
    reportAggregate(alloc.filesUsed, files_used, "filesUsed");
}

void
indexOverlap(const Check &self, const AnalysisInput &input,
             DiagnosticSink &sink)
{
    if (!wantsQueueAudit(input))
        return;
    const Ddg &ddg = *input.ddg;
    // (is_cqrf, cluster-or-link, queueIndex) -> first lifetime.
    std::map<std::tuple<bool, int, int>, const Lifetime *>
        taken;
    for (const Lifetime &lt : input.queues->lifetimes) {
        if (lt.queueIndex < 0) {
            sink.report(self.id, Severity::Error, self.artifact,
                        lifetimeLocation(lt),
                        lifetimeLabel(lt, ddg) +
                            " was never assigned a queue "
                            "index");
            continue;
        }
        const bool cqrf = lt.location == QueueLocation::Cqrf;
        const int file = cqrf ? lt.link : lt.cluster;
        const auto [it, fresh] = taken.emplace(
            std::make_tuple(cqrf, file, lt.queueIndex), &lt);
        if (fresh)
            continue;
        sink.report(
            self.id, Severity::Error, self.artifact,
            lifetimeLocation(lt),
            strfmt("%s and %s both occupy queue %d of the "
                   "same %s",
                   lifetimeLabel(*it->second, ddg).c_str(),
                   lifetimeLabel(lt, ddg).c_str(),
                   lt.queueIndex, cqrf ? "CQRF" : "LRF"));
    }
}

/** Judge one pair of lifetimes that share a queue. */
void
checkPair(const Check &self, const Lifetime &a, const Lifetime &b,
          const Ddg &ddg, const ScheduleView &view,
          DiagnosticSink &sink)
{
    if (a.location != b.location || a.cluster != b.cluster ||
        a.link != b.link) {
        sink.report(self.id, Severity::Error, self.artifact,
                    lifetimeLocation(a),
                    strfmt("%s and %s share a queue but live "
                           "in different register files",
                           lifetimeLabel(a, ddg).c_str(),
                           lifetimeLabel(b, ddg).c_str()));
        return;
    }
    const Phases pa = phasesOf(a, ddg, view);
    const Phases pb = phasesOf(b, ddg, view);
    if (!pa.known || !pb.known)
        return; // queue.span-mismatch reports these
    // FIFO order is consistent for all instance pairs iff no
    // multiple of II lies between (or on) the enter-phase
    // delta and the exit-phase delta: a multiple between them
    // means some pair of instances enters in one order and
    // exits in the other; a multiple on either delta means a
    // simultaneous enter or exit, impossible with one
    // write/read port.
    const int dp = pa.enter - pb.enter;
    const int dq = pa.exit - pb.exit;
    const int lo = std::min(dp, dq);
    const int hi = std::max(dp, dq);
    for (int k = lo / view.ii - 1; k <= hi / view.ii + 1;
         ++k) {
        const int mult = k * view.ii;
        if (mult < lo || mult > hi)
            continue;
        sink.report(
            self.id, Severity::Error, self.artifact,
            lifetimeLocation(a),
            strfmt("%s and %s share a queue but their "
                   "enter/exit phase deltas (%d, %d) straddle "
                   "%d = %d*II; instances would overtake in "
                   "the FIFO",
                   lifetimeLabel(a, ddg).c_str(),
                   lifetimeLabel(b, ddg).c_str(), dp, dq, mult,
                   k));
        return;
    }
}

void
shareOrder(const Check &self, const AnalysisInput &input,
           DiagnosticSink &sink)
{
    if (!wantsQueueAudit(input) || input.sharing == nullptr)
        return;
    const Ddg &ddg = *input.ddg;
    const ScheduleView &view = *input.schedule;
    const std::vector<Lifetime> &lts =
        input.queues->lifetimes;
    for (const SharedQueue &q : input.sharing->queues) {
        for (size_t i = 0; i < q.members.size(); ++i) {
            for (size_t j = i + 1; j < q.members.size(); ++j) {
                const int ma = q.members[i];
                const int mb = q.members[j];
                if (ma < 0 ||
                    ma >= static_cast<int>(lts.size()) ||
                    mb < 0 ||
                    mb >= static_cast<int>(lts.size())) {
                    sink.report(
                        self.id, Severity::Error, self.artifact,
                        DiagLocation(),
                        strfmt("shared queue references "
                               "lifetime %d outside the "
                               "allocation's %zu lifetimes",
                               ma < 0 || ma >= static_cast<int>(
                                                   lts.size())
                                   ? ma
                                   : mb,
                               lts.size()));
                    continue;
                }
                checkPair(self, lts[static_cast<size_t>(ma)],
                          lts[static_cast<size_t>(mb)], ddg, view,
                          sink);
            }
        }
    }
}

constexpr Check kTable[] = {
    {"queue.file-recount",
     "per-file stats and aggregate pressure numbers match a recount of the "
     "lifetimes",
     ArtifactKind::QueueAlloc, fileRecount},
    {"queue.index-overlap",
     "queue indices are unique within each register file",
     ArtifactKind::QueueAlloc, indexOverlap},
    {"queue.location",
     "every lifetime lives in the register file its endpoints dictate",
     ArtifactKind::QueueAlloc, queueLocation},
    {"queue.share-order",
     "lifetimes sharing a queue never overtake each other's FIFO order",
     ArtifactKind::QueueAlloc, shareOrder},
    {"queue.span-mismatch",
     "lifetime spans and FIFO depths match a recomputation from schedule "
     "times",
     ArtifactKind::QueueAlloc, spanMismatch},
};

} // namespace

const CheckTable kQueueChecks = {std::begin(kTable),
                                 std::end(kTable)};

} // namespace lint
} // namespace dms
