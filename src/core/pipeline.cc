#include "core/pipeline.h"

#include <algorithm>

#include "analysis/analyze.h"
#include "ir/unroll.h"
#include "sched/mii.h"
#include "sched/verifier.h"
#include "support/diag.h"
#include "support/strings.h"
#include "workload/unroll_policy.h"

namespace dms {

Scheduler &
CompilationContext::scheduler(const std::string &name)
{
    auto it = schedulers_.find(name);
    if (it == schedulers_.end()) {
        std::unique_ptr<Scheduler> s =
            SchedulerRegistry::instance().create(name);
        if (s == nullptr)
            fatal("unknown scheduler '%s' (registered: %s)",
                  name.c_str(),
                  [] {
                      std::string all;
                      for (const std::string &n :
                           SchedulerRegistry::instance().names()) {
                          if (!all.empty())
                              all += ", ";
                          all += n;
                      }
                      return all;
                  }()
                      .c_str());
        it = schedulers_.emplace(name, std::move(s)).first;
    }
    return *it->second;
}

namespace {

long
iterationsFor(const Loop &loop, int unroll_factor)
{
    long iters =
        (loop.tripCount + unroll_factor - 1) / unroll_factor;
    return std::max<long>(iters, 1);
}

bool
stageUnroll(const PipelineOptions &opts, const Loop &loop,
            const MachineModel &machine, CompilationContext &ctx)
{
    const int factor =
        opts.forceUnroll >= 1
            ? opts.forceUnroll
            : chooseUnrollFactor(loop.ddg, machine,
                                 opts.unrollMaxFactor,
                                 opts.unrollMaxOps);
    unrollDdg(loop.ddg, factor, ctx.body);
    ctx.iterations = iterationsFor(loop, factor);
    return true;
}

bool
stagePrepass(const PipelineOptions &, const Loop &,
             const MachineModel &machine, CompilationContext &ctx)
{
    ctx.prepass = PrepassStats{};
    if (machine.regFileKind() == RegFileKind::Queues) {
        ctx.prepass = singleUsePrepass(
            ctx.body, machine.latencyOf(Opcode::Copy));
    }
    return true;
}

bool
stageMii(const PipelineOptions &, const Loop &,
         const MachineModel &machine, CompilationContext &ctx)
{
    ctx.resMii = resMii(ctx.body, machine);
    ctx.recMii = recMii(ctx.body);
    ctx.mii = std::max(ctx.resMii, ctx.recMii);
    return true;
}

bool
stageSchedule(const PipelineOptions &opts, const Loop &,
              const MachineModel &machine, CompilationContext &ctx)
{
    Scheduler &sched = ctx.scheduler(opts.scheduler);
    if (!sched.supports(machine)) {
        fatal("scheduler '%s' does not support machine '%s'",
              sched.name(), machine.describe().c_str());
    }
    // Hand the MII stage's bounds down so the scheduler does not
    // re-derive them; the values are from the same resMii/recMii
    // calls it would make itself.
    SchedulerConfig config = opts.config;
    config.base.knownResMii = ctx.resMii;
    config.base.knownRecMii = ctx.recMii;
    config.dms.knownResMii = ctx.resMii;
    config.dms.knownRecMii = ctx.recMii;
    ctx.result = sched.schedule(ctx.body, machine, config);
    return ctx.result.sched.ok;
}

bool
stageRegalloc(const PipelineOptions &, const Loop &,
              const MachineModel &machine, CompilationContext &ctx)
{
    ctx.queuesValid = false;
    // Queue allocation models LRF/CQRF files, which exist on
    // queue-file machines; the CQRFs are per directed link, so any
    // topology (ring, mesh, crossbar) allocates.
    if (machine.regFileKind() == RegFileKind::Queues) {
        ctx.queues = allocateQueues(ctx.scheduledDdg(), machine,
                                    *ctx.result.sched.schedule);
        ctx.queuesValid = true;
    }
    return true;
}

bool
stageCodegen(const PipelineOptions &, const Loop &,
             const MachineModel &, CompilationContext &ctx)
{
    ctx.kernel = buildPipelinedLoop(ctx.scheduledDdg(),
                                    *ctx.result.sched.schedule);
    ctx.kernelValid = true;
    return true;
}

bool
stageVerify(const PipelineOptions &, const Loop &,
            const MachineModel &machine, CompilationContext &ctx)
{
    checkSchedule(ctx.scheduledDdg(), machine,
                  *ctx.result.sched.schedule);
    return true;
}

bool
stagePerf(const PipelineOptions &, const Loop &,
          const MachineModel &, CompilationContext &ctx)
{
    ctx.perf = evaluateSchedulePerf(ctx.scheduledDdg(),
                                    *ctx.result.sched.schedule,
                                    ctx.iterations);
    // Fold the regalloc stage's per-link pressure into the perf
    // record so sweeps report full-pipeline numbers.
    if (ctx.queuesValid)
        attachQueueStats(ctx.perf, ctx.queues);
    ctx.perfValid = true;
    return true;
}

bool
stageAnalyze(const PipelineOptions &, const Loop &loop,
             const MachineModel &machine, CompilationContext &ctx)
{
    // The audit is observational: lintCompiled derives sharing and
    // the emitted text into locals, never into the context, so
    // analyzed runs stay bit-identical to plain ones.
    DiagnosticSink sink;
    lintCompiled(machine, ctx.scheduledDdg(), *ctx.result.sched.schedule,
                 ctx.queuesValid ? &ctx.queues : nullptr,
                 ctx.kernelValid ? &ctx.kernel : nullptr,
                 "analyze:" + loop.name, sink);
    if (sink.empty())
        return true;
    // Like verify: a pipeline that produced a flagged artifact has
    // a compiler bug, never a data condition.
    panic("analyze stage found %zu diagnostic(s) for '%s':\n%s",
          sink.diagnostics().size(), loop.name.c_str(),
          sink.renderText().c_str());
}

} // namespace

Pipeline::Pipeline(PipelineOptions options)
    : opts_(std::move(options))
{
    const auto add = [this](const char *name, auto fn) {
        stages_.push_back(
            {name, std::string("pipeline.") + name, fn});
    };
    add("unroll", stageUnroll);
    add("prepass", stagePrepass);
    add("mii", stageMii);
    add("schedule", stageSchedule);
    if (opts_.regalloc)
        add("regalloc", stageRegalloc);
    if (opts_.codegen)
        add("codegen", stageCodegen);
    if (opts_.verify)
        add("verify", stageVerify);
    if (opts_.perf)
        add("perf", stagePerf);
    if (opts_.analyze || envInt("DMS_ANALYZE", 0, 0) > 0)
        add("analyze", stageAnalyze);
}

std::vector<std::string>
Pipeline::stageNames() const
{
    std::vector<std::string> out;
    out.reserve(stages_.size());
    for (const Stage &s : stages_)
        out.emplace_back(s.name);
    return out;
}

bool
Pipeline::run(const Loop &loop, const MachineModel &machine,
              CompilationContext &ctx) const
{
    ctx.queuesValid = false;
    ctx.kernelValid = false;
    ctx.perfValid = false;
    for (const Stage &stage : stages_) {
        // Stage boundary: honor the request's cancellation token
        // (deadline expiry stops burning the worker here) and give
        // an armed fault plan its shot at this stage.
        if (ctx.cancel != nullptr && ctx.cancel->cancelled())
            throw CancelledError(
                strfmt("compilation of '%s' cancelled before "
                       "stage '%s'",
                       loop.name.c_str(), stage.name));
        faultPoint(stage.faultSite.c_str());
        // One span per stage; a throwing stage (injected fault,
        // mid-stage cancel) unwinds through it and marks it failed.
        obs::ScopedSpan span(ctx.trace, stage.name);
        if (!stage.fn(opts_, loop, machine, ctx))
            return false;
    }
    return true;
}

} // namespace dms
