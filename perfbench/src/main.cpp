/**
 * @file
 * dmsbench: the benchmark driver binary.
 *
 *   dmsbench --workload NAME --seed N --seconds S --trace 0|1
 *            [--trace-out PATH] [--src-sha HEX] [--git-sha HEX]
 *   dmsbench names      workload names and metric tables as JSON
 *   dmsbench selftest   benchmark self-tests
 *
 * A run prints human-readable notes, one "config {...}" row with the
 * run's configuration, and as its last line the result object
 * {"correct", "attempted", "failed", "metrics"}. The exit code is 0
 * only when every correctness check passed.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "support/strings.h"

namespace {

using namespace perfbench;

const char *
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

/** JSON string literal of @p s (the names and notes are ASCII). */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
defsJson(const std::vector<MetricDef> &defs)
{
    std::string out = "[";
    for (size_t i = 0; i < defs.size(); ++i) {
        out += dms::strfmt("%s{\"name\":\"%s\",\"unit\":\"%s\","
                           "\"better\":\"%s\"}",
                           i == 0 ? "" : ",", defs[i].name,
                           defs[i].unit, defs[i].better);
    }
    return out + "]";
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "dmsbench: %s\nusage: dmsbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--trace-out PATH] "
                 "[--src-sha HEX] [--git-sha HEX]\n"
                 "       dmsbench names | selftest\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::string(argv[1]) == "names") {
        std::string workloads;
        for (Workload w : kWorkloads)
            workloads += dms::strfmt("%s\"%s\"", workloads.empty() ? "" : ",",
                                     workloadName(w));
        std::printf("{\"workloads\":[%s],\"end_to_end\":%s,"
                    "\"per_layer\":%s}\n",
                    workloads.c_str(), defsJson(endToEndMetrics()).c_str(),
                    defsJson(perLayerMetrics()).c_str());
        return 0;
    }
    if (argc == 2 && std::string(argv[1]) == "selftest")
        return runSelfTests() == 0 ? 0 : 1;

    RunArgs args;
    bool traced = false;
    bool have_workload = false;
    std::string src_sha = "unknown";
    std::string git_sha = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            if (!workloadFromName(value, args.workload))
                return usage(("unknown workload " + value).c_str());
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                return usage("bad --seed");
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' ||
                !(args.seconds > 0 && args.seconds <= 600))
                return usage("bad --seconds");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace takes 0 or 1");
            traced = value == "1";
        } else if (flag == "--trace-out") {
            args.traceOut = value;
        } else if (flag == "--src-sha") {
            src_sha = value;
        } else if (flag == "--git-sha") {
            git_sha = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload)
        return usage("--workload is required");

    Report rep = traced ? runTraced(args) : runEndToEnd(args);

    for (const std::string &line : rep.notes)
        std::printf("%s\n", line.c_str());

    const std::vector<MetricDef> &defs =
        traced ? perLayerMetrics() : endToEndMetrics();
    std::string metrics;
    for (const MetricDef &def : defs) {
        double value = 0.0;
        bool found = false;
        for (const Metric &m : rep.metrics) {
            if (m.name == def.name) {
                value = m.value;
                found = true;
            }
        }
        if (!found || !std::isfinite(value)) {
            rep.fail(dms::strfmt("metric %s was not measured", def.name));
            std::printf("CHECK FAILED: metric %s was not measured\n",
                        def.name);
            value = 0.0;
        }
        std::printf("  %-28s %.6g %s\n", def.name, value, def.unit);
        metrics += dms::strfmt("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                               metrics.empty() ? "" : ",", def.name,
                               value, def.unit);
    }

    std::string config = dms::strfmt(
        "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
        "\"git_sha\":%s,\"src_sha\":%s,\"build_type\":\"%s\","
        "\"compiler\":%s,\"nproc\":%d",
        workloadName(args.workload),
        static_cast<unsigned long long>(args.seed), traced ? 1 : 0,
        quoted(git_sha).c_str(), quoted(src_sha).c_str(),
        DMSBENCH_BUILD_TYPE, quoted(compilerName()).c_str(),
        usableCpus());
    for (const std::string &field : rep.config)
        config += "," + field;
    std::printf("config %s}\n", config.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {%s}}\n",
                rep.correct ? "true" : "false", rep.attempted,
                rep.failed, metrics.c_str());
    std::fflush(stdout);
    return rep.correct ? 0 : 1;
}
