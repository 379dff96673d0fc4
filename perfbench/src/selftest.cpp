/**
 * @file
 * Self-tests of the benchmark itself (`dmsbench selftest`):
 *
 *   - the same seed gives a byte-identical request stream and a
 *     different seed a different one, for every workload;
 *   - every metric name matches [A-Za-z0-9_.-]+ and every unit
 *     [A-Za-z0-9_/%.-]+, with no name used twice;
 *   - every respelling canonicalises to its kernel's loopToText;
 *   - each workload splits work across layers as designed
 *     (cold_unique never hits, respelled_hits never compiles after
 *     priming), checked on short real runs, which also run the
 *     correctness check;
 *   - the traced run on cold_unique produces a trace that passes
 *     obs.trace-nesting, and its layer self times sum to within 10%
 *     of the untraced 1-client/1-worker latency.
 */

#include <cmath>
#include <cstdio>
#include <regex>
#include <set>

#include "internal.h"
#include "serve/cache.h"
#include "support/strings.h"
#include "workload/suite.h"

namespace perfbench {

using namespace dms;

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

/** FNV hash of the first @p n requests of @p w's stream. */
std::uint64_t
streamHash(Workload w, std::uint64_t seed, int n)
{
    const Streams streams(seed);
    std::string bytes;
    if (w == Workload::PaperMatrix) {
        const std::vector<Loop> suite = standardSuite();
        for (long pass = 0; pass < 2; ++pass) {
            for (size_t i : streams.passOrder(suite.size(), pass))
                bytes += suite[i].name + '\n';
        }
        return fnv1a64(bytes);
    }
    for (const Request &r : generate(streams, w, 0, n)) {
        bytes += r.req.loopText;
        bytes += '\x01';
        bytes += r.req.machineText;
        bytes += '\x02';
    }
    return fnv1a64(bytes);
}

double
metricOf(const Report &rep, const char *name)
{
    for (const Metric &m : rep.metrics) {
        if (m.name == name)
            return m.value;
    }
    return std::nan("");
}

} // namespace

int
runSelfTests()
{
    failures = 0;

    for (Workload w : kWorkloads) {
        const std::uint64_t a = streamHash(w, 7, 300);
        const std::uint64_t b = streamHash(w, 7, 300);
        const std::uint64_t c = streamHash(w, 8, 300);
        expect(a == b, strfmt("%s: same seed, identical stream",
                              workloadName(w)));
        expect(a != c, strfmt("%s: other seed, other stream",
                              workloadName(w)));
    }

    const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
    const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
    std::set<std::string> names;
    for (const auto *defs : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricDef &d : *defs) {
            expect(std::regex_match(d.name, name_re) &&
                       std::regex_match(d.unit, unit_re) &&
                       names.insert(d.name).second,
                   strfmt("metric %s [%s] is well named", d.name,
                          d.unit));
        }
    }

    {
        const Streams streams(11);
        int bad = 0;
        for (const Request &r :
             generate(streams, Workload::RespelledHits, 0, 500)) {
            const std::string &hot =
                streams.hotTexts()[static_cast<size_t>(r.hot)];
            if (r.req.loopText == hot ||
                canonicalLoop(r.req.loopText) != canonicalLoop(hot))
                ++bad;
        }
        expect(bad == 0, strfmt("500 respellings canonicalise to their "
                                "kernel (%d did not)",
                                bad));
    }

    for (Workload w : kWorkloads) {
        RunArgs args;
        args.workload = w;
        args.seed = 3;
        args.seconds = 1;
        const Report rep = runEndToEnd(args);
        for (const std::string &note : rep.notes)
            std::printf("     %s\n", note.c_str());
        expect(rep.correct && rep.failed == 0 && rep.attempted > 0,
               strfmt("%s: 1 s run is correct and splits work as "
                      "designed",
                      workloadName(w)));
    }

    {
        RunArgs args;
        args.workload = Workload::ColdUnique;
        args.seed = 3;
        args.seconds = 1;
        // The stage sum is a timing comparison; allow a retry
        // against a noisy neighbour.
        double frac = 0;
        bool correct = false;
        for (int attempt = 0; attempt < 3; ++attempt) {
            const Report rep = runTraced(args);
            frac = metricOf(rep, "trace.stage_sum_frac");
            correct = rep.correct;
            if (correct && std::abs(frac - 1) <= 0.10)
                break;
        }
        expect(correct, "cold_unique traced run is correct and its "
                        "trace passes obs.trace-nesting");
        expect(std::abs(frac - 1) <= 0.10,
               strfmt("cold_unique layer sum is %.1f%% of the "
                      "untraced latency (within 10%%)",
                      frac * 100));
    }

    std::printf("%d self-test failure(s)\n", failures);
    return failures;
}

} // namespace perfbench
