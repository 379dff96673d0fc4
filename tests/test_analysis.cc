/**
 * @file
 * The static-analysis layer: diagnostic rendering, the check
 * table, golden output over the seeded-defect corpus, and
 * programmatically seeded defects for every schedule / queue /
 * kernel audit. The final coverage test asserts that the union of
 * everything seeded here fires *every* check id in the table — a new
 * check cannot be merged without a defect that proves it works.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyze.h"
#include "analysis/check.h"
#include "codegen/emit.h"
#include "core/pipeline.h"
#include "eval/runner.h"
#include "machine/desc.h"
#include "regalloc/sharing.h"
#include "workload/kernels.h"
#include "workload/text.h"

namespace dms {
namespace {

const char *const kCorpusDir = DMS_SOURCE_ROOT "/tests/lint_corpus";

std::string
readFileOrDie(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

/** Lint one corpus file exactly like the dmslint CLI does. */
DiagnosticSink
lintCorpusFile(const std::string &name)
{
    const std::string text =
        readFileOrDie(std::string(kCorpusDir) + "/" + name);
    DiagnosticSink sink;
    if (endsWith(name, ".mtmpl"))
        lintMachineTemplate(text, name, sink);
    else if (endsWith(name, ".machine"))
        lintMachineText(text, name, sink);
    else if (endsWith(name, ".metrics"))
        lintMetricsText(text, name, sink);
    else if (endsWith(name, ".trace"))
        lintTraceText(text, name, sink);
    else
        lintLoopText(text, name, sink);
    return sink;
}

std::set<std::string>
firedIds(const DiagnosticSink &sink)
{
    std::set<std::string> ids;
    for (const Diagnostic &d : sink.diagnostics())
        ids.insert(d.checkId);
    return ids;
}

bool
fired(const DiagnosticSink &sink, const std::string &id)
{
    return firedIds(sink).count(id) > 0;
}

/** Every .machine/.mtmpl/.loop/.metrics/.trace case. */
const std::vector<std::string> &
corpusCases()
{
    static const std::vector<std::string> kCases = {
        "bad_parse.machine",      "dead_class.machine",
        "zero_latency.machine",   "copy_unused.machine",
        "bad_template.mtmpl",     "bad_parse.loop",
        "store_no_value.loop",    "dead_op.loop",
        "dangling_operand.loop",  "noncanonical.loop",
        "inconsistent.metrics",   "inconsistent_net.metrics",
        "undercount.metrics",     "misnested.trace",
    };
    return kCases;
}

/**
 * A fully compiled kernel on the paper's 4-cluster ring: the
 * honest artifacts every seeded defect below starts from. fir8 is
 * wide enough that DMS inserts move chains on the ring, which the
 * move/chain checks need.
 */
struct Compiled
{
    MachineModel machine = MachineModel::clusteredRing(4);
    Loop loop = kernelFir8();
    CompilationContext ctx;
    bool ok = false;
    ScheduleView view;
    SharedAllocation sharing;
    std::string kernelText;

    Compiled()
    {
        PipelineOptions po;
        po.scheduler = "dms";
        po.regalloc = true;
        po.codegen = true;
        po.perf = false;
        Pipeline pipeline(po);
        ok = pipeline.run(loop, machine, ctx);
        if (!ok)
            return;
        view = viewOf(*ctx.result.sched.schedule);
        sharing = shareQueues(ctx.queues, ctx.scheduledDdg(),
                              *ctx.result.sched.schedule);
        kernelText = emitKernel(ctx.scheduledDdg(), machine,
                                ctx.kernel, &ctx.queues);
    }

    const Ddg &ddg() const { return ctx.scheduledDdg(); }

    /** Input over the honest artifacts; caller may corrupt copies. */
    AnalysisInput
    input() const
    {
        AnalysisInput in;
        in.machine = &machine;
        in.ddg = &ctx.scheduledDdg();
        in.schedule = &view;
        in.queues = &ctx.queues;
        in.sharing = &sharing;
        in.kernel = &ctx.kernel;
        in.kernelText = &kernelText;
        return in;
    }
};

const Compiled &
compiled()
{
    static const Compiled c;
    return c;
}

DiagnosticSink
runInput(const AnalysisInput &input)
{
    DiagnosticSink sink;
    runChecks(input, "seeded", sink);
    return sink;
}

/** First live op of FU class @p cls, or kInvalidOp. */
OpId
firstOpOfClass(const Ddg &ddg, FuClass cls)
{
    for (OpId op : ddg.liveOps()) {
        if (fuClassOf(ddg.op(op).opc) == cls)
            return op;
    }
    return kInvalidOp;
}

// --- check table and rendering -----------------------------------------

TEST(CheckRegistry, AllIdsRegisteredAndSorted)
{
    std::vector<std::string> ids;
    for (const Check &c : allChecks()) {
        ids.emplace_back(c.id);
        EXPECT_STRNE(c.description, "");
        EXPECT_NE(c.run, nullptr);
    }
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    // The catalog is append-only: removing or renaming a stable id
    // breaks downstream suppression lists, so spell them all out.
    const std::vector<std::string> expected = {
        "kernel.queue-annotation",
        "kernel.shape",
        "loop.dangling-operand",
        "loop.dead-op",
        "loop.noncanonical-text",
        "loop.parse",
        "loop.store-no-value",
        "machine.copy-unused",
        "machine.fu-dead-class",
        "machine.latency-nonpositive",
        "machine.parse",
        "machine.template-expand",
        "obs.metrics-consistency",
        "obs.trace-nesting",
        "queue.file-recount",
        "queue.index-overlap",
        "queue.location",
        "queue.share-order",
        "queue.span-mismatch",
        "sched.chain-broken",
        "sched.comm-hop",
        "sched.dep-latency",
        "sched.height-consistency",
        "sched.ii-lower-bound",
        "sched.move-shape",
        "sched.resource-overuse",
        "sched.unscheduled-op",
    };
    EXPECT_EQ(ids, expected);
}

TEST(Diagnostics, RenderAndExitCodes)
{
    DiagnosticSink sink;
    EXPECT_EQ(sink.exitCode(), 0);
    EXPECT_EQ(sink.renderText(), "");
    EXPECT_EQ(sink.renderJson(), "[\n]\n");

    sink.setSubject("unit.loop");
    DiagLocation loc;
    loc.line = 7;
    loc.op = 3;
    sink.report("loop.dead-op", Severity::Warning,
                ArtifactKind::Loop, loc, "result never used");
    EXPECT_EQ(sink.renderText(),
              "warning[loop.dead-op] unit.loop:7: result never "
              "used (op 3)\n");
    EXPECT_EQ(sink.exitCode(), 2);

    sink.report("sched.dep-latency", Severity::Error,
                ArtifactKind::Schedule, DiagLocation(), "boom");
    EXPECT_EQ(sink.maxSeverity(), Severity::Error);
    EXPECT_EQ(sink.exitCode(), 3);
    EXPECT_EQ(sink.count(Severity::Warning), 1);
    EXPECT_EQ(sink.count(Severity::Error), 1);

    const std::string json = sink.renderJson();
    EXPECT_NE(json.find("\"check\": \"loop.dead-op\""),
              std::string::npos);
    EXPECT_NE(json.find("\"severity\": \"error\""),
              std::string::npos);
}

// --- corpus goldens ----------------------------------------------------

TEST(LintCorpus, GoldenOutput)
{
    for (const std::string &name : corpusCases()) {
        const DiagnosticSink sink = lintCorpusFile(name);
        const std::string expected = readFileOrDie(
            std::string(kCorpusDir) + "/" + name + ".expected");
        EXPECT_EQ(sink.renderText(), expected) << name;
        EXPECT_FALSE(sink.empty()) << name;
    }
}

TEST(LintCorpus, EachCaseFlagsItsCheckWithLocation)
{
    struct Want
    {
        const char *file;
        const char *check;
        int line; ///< 0 = any
    };
    // Lines point at the seeded defect inside each corpus file; a
    // file seeded with several defects lists each one's line.
    const Want wants[] = {
        {"bad_parse.machine", "machine.parse", 4},
        {"dead_class.machine", "machine.fu-dead-class", 7},
        {"zero_latency.machine", "machine.latency-nonpositive", 8},
        {"copy_unused.machine", "machine.copy-unused", 7},
        {"bad_template.mtmpl", "machine.template-expand", 5},
        {"bad_parse.loop", "loop.parse", 4},
        {"store_no_value.loop", "loop.store-no-value", 7},
        {"dead_op.loop", "loop.dead-op", 5},
        {"dangling_operand.loop", "loop.dangling-operand", 5},
        {"noncanonical.loop", "loop.noncanonical-text", 0},
        // submit outcomes, shed <= misses, depth <= peak <= capacity
        {"inconsistent.metrics", "obs.metrics-consistency", 12},
        {"inconsistent.metrics", "obs.metrics-consistency", 13},
        {"inconsistent.metrics", "obs.metrics-consistency", 15},
        {"inconsistent.metrics", "obs.metrics-consistency", 16},
        // outcome overshoot, framing <= invalid, lines need
        // connections, bytes in >= lines
        {"inconsistent_net.metrics", "obs.metrics-consistency", 18},
        {"inconsistent_net.metrics", "obs.metrics-consistency", 9},
        {"inconsistent_net.metrics", "obs.metrics-consistency", 10},
        {"inconsistent_net.metrics", "obs.metrics-consistency", 6},
        {"undercount.metrics", "obs.metrics-consistency", 6},
        {"misnested.trace", "obs.trace-nesting", 0},
    };
    for (const Want &w : wants) {
        const DiagnosticSink sink = lintCorpusFile(w.file);
        bool found = false;
        for (const Diagnostic &d : sink.diagnostics())
            found = found || (d.checkId == w.check &&
                              (w.line == 0 || d.loc.line == w.line));
        EXPECT_TRUE(found) << w.file << " did not fire " << w.check
                           << " at line " << w.line;
    }
}

// --- clean baselines ---------------------------------------------------

TEST(LintClean, CheckedInMachinesAndLoops)
{
    const std::string machines =
        std::string(DMS_SOURCE_ROOT) + "/examples/machines/";
    for (const char *name : {"ring4.machine", "mesh2x3.machine",
                             "xbar6.machine",
                             "unclustered8.machine"}) {
        DiagnosticSink sink;
        lintMachineText(readFileOrDie(machines + name), name, sink);
        EXPECT_EQ(sink.renderText(), "") << name;
    }
    const std::string loops =
        std::string(DMS_SOURCE_ROOT) + "/examples/loops/";
    for (const char *name : {"daxpy.loop", "dot_product.loop",
                             "fir8.loop", "stencil3.loop"}) {
        DiagnosticSink sink;
        lintLoopText(readFileOrDie(loops + name), name, sink);
        EXPECT_EQ(sink.renderText(), "") << name;
    }
}

TEST(LintClean, SweepTemplatesAndNamedKernels)
{
    for (const std::string &tmpl :
         {std::string(kClusteredMachineTemplate),
          std::string(kUnclusteredMachineTemplate)}) {
        DiagnosticSink sink;
        lintMachineTemplate(tmpl, "template", sink);
        EXPECT_EQ(sink.renderText(), "");
    }
    for (const Loop &loop : namedKernels()) {
        DiagnosticSink sink;
        lintLoop(loop, loop.name, sink);
        EXPECT_EQ(sink.renderText(), "") << loop.name;
    }
}

TEST(LintClean, CompiledArtifactsAuditClean)
{
    const Compiled &c = compiled();
    ASSERT_TRUE(c.ok);
    const DiagnosticSink sink = runInput(c.input());
    EXPECT_EQ(sink.renderText(), "");

    // Every subset of the honest artifacts audits clean too: a check
    // whose guard lets it run without an input it reads would
    // report or crash on one of these partial inputs.
    const AnalysisInput full = c.input();
    for (unsigned mask = 0; mask < (1u << 7); ++mask) {
        AnalysisInput in;
        auto keep = [&](int bit, auto member) {
            if ((mask & (1u << bit)) != 0)
                in.*member = full.*member;
        };
        keep(0, &AnalysisInput::machine);
        keep(1, &AnalysisInput::ddg);
        keep(2, &AnalysisInput::schedule);
        keep(3, &AnalysisInput::queues);
        keep(4, &AnalysisInput::sharing);
        keep(5, &AnalysisInput::kernel);
        keep(6, &AnalysisInput::kernelText);
        EXPECT_EQ(runInput(in).renderText(), "") << "mask " << mask;
    }
}

// --- seeded schedule defects -------------------------------------------

TEST(SeededSchedule, UnscheduledOp)
{
    const Compiled &c = compiled();
    ASSERT_TRUE(c.ok);
    ScheduleView bad = c.view;
    const OpId victim = c.ddg().liveOps().front();
    bad.placements[static_cast<size_t>(victim)].time = kUnscheduled;
    AnalysisInput in = c.input();
    in.schedule = &bad;
    const DiagnosticSink sink = runInput(in);
    EXPECT_TRUE(fired(sink, "sched.unscheduled-op"));
    bool located = false;
    for (const Diagnostic &d : sink.diagnostics()) {
        if (d.checkId == "sched.unscheduled-op" &&
            d.loc.op == victim)
            located = true;
    }
    EXPECT_TRUE(located);
}

TEST(SeededSchedule, ResourceOveruse)
{
    const Compiled &c = compiled();
    ASSERT_TRUE(c.ok);
    // Two mul ops collapsed onto the same cluster, row and unit.
    const Ddg &ddg = c.ddg();
    OpId a = kInvalidOp, b = kInvalidOp;
    for (OpId op : ddg.liveOps()) {
        if (fuClassOf(ddg.op(op).opc) != FuClass::Mul)
            continue;
        if (a == kInvalidOp)
            a = op;
        else if (b == kInvalidOp)
            b = op;
    }
    ASSERT_NE(b, kInvalidOp);
    ScheduleView bad = c.view;
    bad.placements[static_cast<size_t>(b)] =
        bad.placements[static_cast<size_t>(a)];
    AnalysisInput in = c.input();
    in.schedule = &bad;
    EXPECT_TRUE(fired(runInput(in), "sched.resource-overuse"));

    // A unit index past the machine's width is also an overuse.
    ScheduleView oob = c.view;
    oob.placements[static_cast<size_t>(a)].fuInstance = 99;
    in.schedule = &oob;
    EXPECT_TRUE(fired(runInput(in), "sched.resource-overuse"));
}

TEST(SeededSchedule, DepLatency)
{
    const Compiled &c = compiled();
    ASSERT_TRUE(c.ok);
    const Ddg &ddg = c.ddg();
    // Yank a consumer far earlier than its producer allows.
    EdgeId victim = kInvalidEdge;
    for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
        if (ddg.edgeActive(e) && ddg.edge(e).distance == 0 &&
            c.view.scheduled(ddg.edge(e).src) &&
            c.view.scheduled(ddg.edge(e).dst)) {
            victim = e;
            break;
        }
    }
    ASSERT_NE(victim, kInvalidEdge);
    ScheduleView bad = c.view;
    const OpId dst = ddg.edge(victim).dst;
    bad.placements[static_cast<size_t>(dst)].time =
        c.view.at(ddg.edge(victim).src).time - 1000;
    AnalysisInput in = c.input();
    in.schedule = &bad;
    const DiagnosticSink sink = runInput(in);
    EXPECT_TRUE(fired(sink, "sched.dep-latency"));
}

TEST(SeededSchedule, HeightConsistency)
{
    // A body with a real recurrence (acc = acc * x + y), compiled
    // honestly, then audited at an II below the recurrence bound:
    // the independent height relaxation must detect the
    // positive-weight cycle that the resource-only II check cannot.
    LoopBuilder b;
    OpId ld = b.load(0);
    OpId ml = b.mul1(ld);
    OpId ad = b.add1(ml);
    b.flow(ad, ml, 1, 1);
    b.store(1, ad);
    Loop loop;
    loop.name = "recurrence";
    loop.ddg = b.take();

    MachineModel machine = MachineModel::clusteredRing(2);
    PipelineOptions po;
    po.scheduler = "dms";
    po.perf = false;
    Pipeline pipeline(po);
    CompilationContext ctx;
    ASSERT_TRUE(pipeline.run(loop, machine, ctx));
    ScheduleView view = viewOf(*ctx.result.sched.schedule);

    AnalysisInput in;
    in.machine = &machine;
    in.ddg = &ctx.scheduledDdg();
    in.schedule = &view;
    EXPECT_FALSE(fired(runInput(in), "sched.height-consistency"));

    ScheduleView bad = view;
    bad.ii = 1;
    ASSERT_LT(bad.ii, view.ii);
    in.schedule = &bad;
    EXPECT_TRUE(fired(runInput(in), "sched.height-consistency"));
}

TEST(SeededSchedule, IiLowerBound)
{
    const Compiled &c = compiled();
    ASSERT_TRUE(c.ok);
    // fir8 has 8 muls; one mul unit per ring cluster makes the
    // resource bound at least 2, so II=1 must be rejected.
    ScheduleView bad = c.view;
    bad.ii = 1;
    AnalysisInput in = c.input();
    in.schedule = &bad;
    in.queues = nullptr; // depth recomputation is not under test
    in.sharing = nullptr;
    in.kernel = nullptr;
    in.kernelText = nullptr;
    EXPECT_TRUE(fired(runInput(in), "sched.ii-lower-bound"));
}

TEST(SeededSchedule, CommHop)
{
    const Compiled &c = compiled();
    ASSERT_TRUE(c.ok);
    const Ddg &ddg = c.ddg();
    // Teleport a producer two ring hops away from its consumer.
    EdgeId victim = kInvalidEdge;
    for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
        if (ddg.edgeActive(e) &&
            ddg.edge(e).kind == DepKind::Flow &&
            c.view.scheduled(ddg.edge(e).src) &&
            c.view.scheduled(ddg.edge(e).dst)) {
            victim = e;
            break;
        }
    }
    ASSERT_NE(victim, kInvalidEdge);
    const OpId src = ddg.edge(victim).src;
    const OpId dst = ddg.edge(victim).dst;
    ScheduleView bad = c.view;
    bad.placements[static_cast<size_t>(src)].cluster =
        (c.view.at(dst).cluster + 2) % 4;
    AnalysisInput in = c.input();
    in.schedule = &bad;
    EXPECT_TRUE(fired(runInput(in), "sched.comm-hop"));
}

TEST(SeededSchedule, MoveShapeAndChainBroken)
{
    // Hand-built graph: load on cluster 0 feeding a store on
    // cluster 2 of a 4-ring, "carried" by a move whose own hop is
    // also illegal — and a replaced edge with no chain at all.
    LoopBuilder b;
    const OpId ld = b.load(0);
    const OpId st = b.store(1, ld);
    Ddg ddg = b.take();
    const OpId mv = ddg.addOp(Opcode::Move, OpOrigin::MoveOp);
    const EdgeId direct = 0; // ld -> st, the only builder edge
    const EdgeId hop_in = ddg.addEdge(ld, mv, DepKind::Flow, 0, 2, 0);
    const EdgeId hop_out =
        ddg.addEdge(mv, st, DepKind::Flow, 0, 1, 0);
    ddg.markReplaced(direct);

    const MachineModel machine = MachineModel::clusteredRing(4);
    ScheduleView view;
    view.ii = 1;
    view.placements.resize(static_cast<size_t>(ddg.numOps()));
    auto place = [&](OpId op, Cycle t, ClusterId cl) {
        Placement &p = view.placements[static_cast<size_t>(op)];
        p.time = t;
        p.cluster = cl;
        p.fuInstance = 0;
    };
    place(ld, 0, 0);
    place(mv, 2, 2); // two hops from the producer: bad move hop
    place(st, 3, 2);

    AnalysisInput in;
    in.machine = &machine;
    in.ddg = &ddg;
    in.schedule = &view;
    const DiagnosticSink sink = runInput(in);
    EXPECT_TRUE(fired(sink, "sched.move-shape"));

    // Dissolving the move entirely leaves the replaced edge with
    // no carrier.
    ddg.removeEdge(hop_in);
    ddg.removeEdge(hop_out);
    ddg.removeOp(mv);
    const DiagnosticSink broken = runInput(in);
    EXPECT_TRUE(fired(broken, "sched.chain-broken"));
}

// --- seeded queue-allocation defects -----------------------------------

TEST(SeededQueues, SpanDepthLocationRecountIndex)
{
    const Compiled &c = compiled();
    ASSERT_TRUE(c.ok);
    ASSERT_FALSE(c.ctx.queues.lifetimes.empty());

    // span lies about the schedule times
    QueueAllocation bad = c.ctx.queues;
    bad.lifetimes[0].span += 3;
    AnalysisInput in = c.input();
    in.queues = &bad;
    in.sharing = nullptr;
    in.kernel = nullptr;
    in.kernelText = nullptr;
    EXPECT_TRUE(fired(runInput(in), "queue.span-mismatch"));

    // an LRF lifetime claiming the wrong cluster
    QueueAllocation misplace = c.ctx.queues;
    Lifetime &lt = misplace.lifetimes[0];
    lt.cluster = (lt.cluster + 1) % 4;
    in.queues = &misplace;
    EXPECT_TRUE(fired(runInput(in), "queue.location"));

    // aggregate pressure numbers drifting from the lifetimes
    QueueAllocation drift = c.ctx.queues;
    drift.totalStorage += 1;
    in.queues = &drift;
    EXPECT_TRUE(fired(runInput(in), "queue.file-recount"));

    // two lifetimes of one file on the same queue index
    QueueAllocation overlap = c.ctx.queues;
    int first = -1;
    for (size_t i = 0; i < overlap.lifetimes.size() && first < 0;
         ++i) {
        for (size_t j = i + 1; j < overlap.lifetimes.size(); ++j) {
            const Lifetime &a = overlap.lifetimes[i];
            const Lifetime &b = overlap.lifetimes[j];
            if (a.location == b.location &&
                a.cluster == b.cluster && a.link == b.link) {
                overlap.lifetimes[j].queueIndex = a.queueIndex;
                first = static_cast<int>(i);
                break;
            }
        }
    }
    ASSERT_GE(first, 0) << "no two lifetimes share a file";
    in.queues = &overlap;
    EXPECT_TRUE(fired(runInput(in), "queue.index-overlap"));
}

TEST(SeededQueues, ShareOrderOvertake)
{
    // Two LRF lifetimes whose enter/exit deltas straddle a multiple
    // of II: A enters first but exits long after B — FIFO overtake.
    LoopBuilder b;
    const OpId ld0 = b.load(0);
    const OpId ld1 = b.load(1);
    const OpId st0 = b.store(2, ld0);
    const OpId st1 = b.store(3, ld1);
    Ddg ddg = b.take();
    const MachineModel machine = MachineModel::clusteredRing(1);

    ScheduleView view;
    view.ii = 4;
    view.placements.resize(static_cast<size_t>(ddg.numOps()));
    auto place = [&](OpId op, Cycle t, int fu) {
        Placement &p = view.placements[static_cast<size_t>(op)];
        p.time = t;
        p.cluster = 0;
        p.fuInstance = fu;
    };
    place(ld0, 0, 0); // enter 0+2=2
    place(ld1, 1, 0); // enter 1+2=3
    place(st0, 10, 0); // exit 10: A = (2, 10)
    place(st1, 3, 0);  // exit 3:  B = (3, 3)
    // dp = -1, dq = 7: k*4 in [-1, 7] for k in {0, 1} -> overtake.

    QueueAllocation alloc;
    auto lifetimeFor = [&](OpId def, OpId use, int qi) {
        Lifetime lt;
        for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
            if (ddg.edge(e).src == def && ddg.edge(e).dst == use)
                lt.edge = e;
        }
        lt.def = def;
        lt.use = use;
        lt.span = view.at(use).time - view.at(def).time - 2;
        lt.depth = lt.span / view.ii + 1;
        lt.location = QueueLocation::Lrf;
        lt.cluster = 0;
        lt.queueIndex = qi;
        return lt;
    };
    alloc.lifetimes.push_back(lifetimeFor(ld0, st0, 0));
    alloc.lifetimes.push_back(lifetimeFor(ld1, st1, 1));
    alloc.lrf.resize(1);
    alloc.cqrf.resize(static_cast<size_t>(machine.numLinks()));
    for (int l = 0; l < machine.numLinks(); ++l)
        alloc.links.push_back(machine.linkAt(l));
    alloc.lrf[0].queues = 2;
    alloc.lrf[0].maxDepth =
        std::max(alloc.lifetimes[0].depth, alloc.lifetimes[1].depth);
    alloc.lrf[0].totalDepth =
        alloc.lifetimes[0].depth + alloc.lifetimes[1].depth;
    alloc.totalStorage = alloc.lrf[0].totalDepth;
    alloc.maxQueuesPerFile = 2;
    alloc.filesUsed = 1;

    SharedAllocation sharing;
    SharedQueue q;
    q.members = {0, 1};
    q.depth = alloc.lrf[0].maxDepth;
    sharing.queues.push_back(q);
    sharing.queuesBefore = 2;
    sharing.queuesAfter = 1;

    AnalysisInput in;
    in.machine = &machine;
    in.ddg = &ddg;
    in.schedule = &view;
    in.queues = &alloc;
    in.sharing = &sharing;
    const DiagnosticSink sink = runInput(in);
    EXPECT_TRUE(fired(sink, "queue.share-order"));
    // The seed is otherwise consistent: only the sharing is wrong.
    EXPECT_FALSE(fired(sink, "queue.span-mismatch"));
    EXPECT_FALSE(fired(sink, "queue.file-recount"));
}

// --- seeded kernel defects ---------------------------------------------

TEST(SeededKernel, ShapeAndAnnotation)
{
    const Compiled &c = compiled();
    ASSERT_TRUE(c.ok);

    // A slot lying about its stage breaks the shape recomputation.
    PipelinedLoop bent = c.ctx.kernel;
    bool corrupted = false;
    for (std::vector<KernelSlot> &row : bent.rows) {
        if (!row.empty()) {
            row[0].stage += 1;
            corrupted = true;
            break;
        }
    }
    ASSERT_TRUE(corrupted);
    AnalysisInput in = c.input();
    in.kernel = &bent;
    EXPECT_TRUE(fired(runInput(in), "kernel.shape"));

    // Emitted text whose queue annotations disagree with the
    // allocation (every ">cN.qM" marker vandalized).
    std::string vandalized = c.kernelText;
    size_t pos = vandalized.find(">c");
    ASSERT_NE(pos, std::string::npos);
    while (pos != std::string::npos) {
        vandalized[pos + 1] = 'x';
        pos = vandalized.find(">c", pos + 1);
    }
    in = c.input();
    in.kernelText = &vandalized;
    EXPECT_TRUE(fired(runInput(in), "kernel.queue-annotation"));
}

// --- every check fires somewhere ---------------------------------------

TEST(Coverage, EverySeededDefectUnionCoversAllChecks)
{
    std::set<std::string> all;
    for (const std::string &name : corpusCases()) {
        const std::set<std::string> ids =
            firedIds(lintCorpusFile(name));
        all.insert(ids.begin(), ids.end());
    }

    const Compiled &c = compiled();
    ASSERT_TRUE(c.ok);
    auto absorb = [&](const DiagnosticSink &sink) {
        const std::set<std::string> ids = firedIds(sink);
        all.insert(ids.begin(), ids.end());
    };

    {
        ScheduleView bad = c.view;
        bad.placements[static_cast<size_t>(
                           c.ddg().liveOps().front())]
            .time = kUnscheduled;
        AnalysisInput in = c.input();
        in.schedule = &bad;
        absorb(runInput(in));
    }
    {
        ScheduleView bad = c.view;
        const OpId mul = firstOpOfClass(c.ddg(), FuClass::Mul);
        ASSERT_NE(mul, kInvalidOp);
        bad.placements[static_cast<size_t>(mul)].fuInstance = 99;
        bad.ii = 1;
        AnalysisInput in = c.input();
        in.schedule = &bad;
        in.queues = nullptr;
        in.sharing = nullptr;
        in.kernel = nullptr;
        in.kernelText = nullptr;
        absorb(runInput(in));
    }
    {
        // dep-latency + comm-hop in one corruption
        const Ddg &ddg = c.ddg();
        ScheduleView bad = c.view;
        for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
            if (ddg.edgeActive(e) &&
                ddg.edge(e).kind == DepKind::Flow) {
                const OpId dst = ddg.edge(e).dst;
                Placement &p =
                    bad.placements[static_cast<size_t>(dst)];
                p.time -= 1000;
                p.cluster = (p.cluster + 2) % 4;
                break;
            }
        }
        AnalysisInput in = c.input();
        in.schedule = &bad;
        in.queues = nullptr;
        in.sharing = nullptr;
        in.kernel = nullptr;
        in.kernelText = nullptr;
        absorb(runInput(in));
    }
    {
        LoopBuilder b;
        const OpId ld = b.load(0);
        const OpId st = b.store(1, ld);
        Ddg ddg = b.take();
        const OpId mv = ddg.addOp(Opcode::Move, OpOrigin::MoveOp);
        const EdgeId e_in =
            ddg.addEdge(ld, mv, DepKind::Flow, 0, 2, 0);
        const EdgeId e_out =
            ddg.addEdge(mv, st, DepKind::Flow, 0, 1, 0);
        ddg.markReplaced(0);
        const MachineModel machine = MachineModel::clusteredRing(4);
        ScheduleView view;
        view.ii = 1;
        view.placements.resize(static_cast<size_t>(ddg.numOps()));
        view.placements[static_cast<size_t>(ld)] = {0, 0, 0};
        view.placements[static_cast<size_t>(mv)] = {2, 2, 0};
        view.placements[static_cast<size_t>(st)] = {3, 2, 0};
        AnalysisInput in;
        in.machine = &machine;
        in.ddg = &ddg;
        in.schedule = &view;
        absorb(runInput(in));
        ddg.removeEdge(e_in);
        ddg.removeEdge(e_out);
        ddg.removeOp(mv);
        absorb(runInput(in));
    }
    {
        // Recurrence audited below its recurrence-imposed minimum
        // II: height relaxation cannot converge.
        LoopBuilder b;
        const OpId ld = b.load(0);
        const OpId ml = b.mul1(ld);
        const OpId ad = b.add1(ml);
        b.flow(ad, ml, 1, 1);
        const OpId st = b.store(1, ad);
        Ddg ddg = b.take();
        ScheduleView view;
        view.ii = 1;
        view.placements.resize(static_cast<size_t>(ddg.numOps()));
        view.placements[static_cast<size_t>(ld)] = {0, 0, 0};
        view.placements[static_cast<size_t>(ml)] = {2, 0, 0};
        view.placements[static_cast<size_t>(ad)] = {5, 0, 0};
        view.placements[static_cast<size_t>(st)] = {6, 0, 0};
        AnalysisInput in;
        in.ddg = &ddg;
        in.schedule = &view;
        absorb(runInput(in));
    }
    {
        QueueAllocation bad = c.ctx.queues;
        ASSERT_FALSE(bad.lifetimes.empty());
        bad.lifetimes[0].span += 3;
        bad.lifetimes[0].cluster =
            (bad.lifetimes[0].cluster + 1) % 4;
        bad.totalStorage += 1;
        AnalysisInput in = c.input();
        in.queues = &bad;
        in.sharing = nullptr;
        in.kernel = nullptr;
        in.kernelText = nullptr;
        absorb(runInput(in));
    }
    {
        QueueAllocation overlap = c.ctx.queues;
        bool done = false;
        for (size_t i = 0; i < overlap.lifetimes.size() && !done;
             ++i) {
            for (size_t j = i + 1; j < overlap.lifetimes.size();
                 ++j) {
                Lifetime &a = overlap.lifetimes[i];
                Lifetime &b = overlap.lifetimes[j];
                if (a.location == b.location &&
                    a.cluster == b.cluster && a.link == b.link) {
                    b.queueIndex = a.queueIndex;
                    done = true;
                    break;
                }
            }
        }
        ASSERT_TRUE(done);
        AnalysisInput in = c.input();
        in.queues = &overlap;
        in.sharing = nullptr;
        in.kernel = nullptr;
        in.kernelText = nullptr;
        absorb(runInput(in));
    }
    {
        SharedAllocation bogus = c.sharing;
        SharedQueue q;
        q.members = {0, static_cast<int>(
                            c.ctx.queues.lifetimes.size()) +
                            7};
        bogus.queues.push_back(q);
        AnalysisInput in = c.input();
        in.sharing = &bogus;
        in.kernel = nullptr;
        in.kernelText = nullptr;
        absorb(runInput(in));
    }
    {
        PipelinedLoop bent = c.ctx.kernel;
        for (std::vector<KernelSlot> &row : bent.rows) {
            if (!row.empty()) {
                row[0].stage += 1;
                break;
            }
        }
        std::string vandalized = c.kernelText;
        for (size_t pos = vandalized.find(">c");
             pos != std::string::npos;
             pos = vandalized.find(">c", pos + 1))
            vandalized[pos + 1] = 'x';
        AnalysisInput in = c.input();
        in.kernel = &bent;
        in.kernelText = &vandalized;
        absorb(runInput(in));
    }

    std::set<std::string> listed;
    for (const Check &check : allChecks())
        listed.insert(check.id);
    EXPECT_EQ(all, listed);
}

// --- the opt-in pipeline stage -----------------------------------------

TEST(AnalyzeStage, OptInAndObservational)
{
    PipelineOptions off;
    off.regalloc = true;
    off.codegen = true;
    const std::vector<std::string> plain =
        Pipeline(off).stageNames();
    EXPECT_EQ(std::count(plain.begin(), plain.end(), "analyze"), 0);

    PipelineOptions on = off;
    on.analyze = true;
    const std::vector<std::string> audited =
        Pipeline(on).stageNames();
    EXPECT_EQ(std::count(audited.begin(), audited.end(), "analyze"),
              1);
    EXPECT_EQ(audited.back(), "analyze");

    // Observational: an analyzed sweep is bit-identical to a plain
    // one (and diagnostic-clean — any finding would panic).
    const std::vector<Loop> suite = {kernelDaxpy(),
                                     kernelDotProduct()};
    RunnerOptions ro;
    ro.maxClusters = 2;
    ro.progress = false;
    ro.jobs = 1;
    const std::vector<ConfigRun> base = runMatrix(suite, ro);
    ro.analyze = true;
    const std::vector<ConfigRun> analyzed = runMatrix(suite, ro);
    ASSERT_EQ(base.size(), analyzed.size());
    for (size_t i = 0; i < base.size(); ++i)
        EXPECT_EQ(base[i], analyzed[i]) << "config " << i;
}

} // namespace
} // namespace dms
