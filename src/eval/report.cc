#include "eval/report.h"

#include <chrono>
#include <cstdio>

#include "eval/figures.h"
#include "support/diag.h"
#include "support/thread_pool.h"

namespace dms {

namespace {

/** Minimal JSON string escaping (quotes, backslash, control). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strfmt("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

void
appendMachine(std::string &out, const char *key,
              const std::vector<LoopRun> &runs,
              const std::vector<size_t> &set1,
              const std::vector<size_t> &set2)
{
    out += strfmt("\"%s\":{", key);
    out += strfmt("\"set1_cycles\":%.0f,",
                  totalCycles(runs, set1));
    out += strfmt("\"set1_ipc\":%.4f,", aggregateIpc(runs, set1));
    out += strfmt("\"set2_cycles\":%.0f,",
                  totalCycles(runs, set2));
    out += strfmt("\"set2_ipc\":%.4f}", aggregateIpc(runs, set2));
}

} // namespace

std::string
matrixReportJson(const MatrixReport &meta,
                 const std::vector<Loop> &suite,
                 const std::vector<ConfigRun> &matrix)
{
    auto set1 = selectSet(suite, LoopSet::Set1);
    auto set2 = selectSet(suite, LoopSet::Set2);

    std::string out = "{";
    out += strfmt("\"bench\":\"%s\",",
                  jsonEscape(meta.bench).c_str());
    out += strfmt("\"suite_size\":%zu,", meta.suiteSize);
    out += strfmt("\"set2_size\":%zu,", set2.size());
    out += strfmt("\"jobs\":%d,", meta.jobs);
    out += strfmt("\"wall_seconds\":%.6f,", meta.wallSeconds);
    out += "\"configs\":[";
    for (size_t i = 0; i < matrix.size(); ++i) {
        const ConfigRun &cfg = matrix[i];
        if (i)
            out += ",";
        out += strfmt("{\"clusters\":%d,\"fus\":%d,", cfg.clusters,
                      cfg.clusters * 3);
        appendMachine(out, "ims", cfg.unclustered, set1, set2);
        out += ",";
        appendMachine(out, "dms", cfg.clustered, set1, set2);
        out += "}";
    }
    out += "]";
    if (!meta.extra.empty()) {
        out += ",";
        out += meta.extra;
    }
    out += "}";
    return out;
}

bool
writeMatrixReport(const std::string &path, const MatrixReport &meta,
                  const std::vector<Loop> &suite,
                  const std::vector<ConfigRun> &matrix)
{
    std::string json = matrixReportJson(meta, suite, matrix);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        warn("cannot write %s", path.c_str());
        return false;
    }
    std::fputs(json.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    inform("wrote %s", path.c_str());
    return true;
}

std::vector<ConfigRun>
runMatrixReported(const std::string &bench,
                  const std::vector<Loop> &suite,
                  const RunnerOptions &opts)
{
    // Resolve the job count once so the DMS_JOBS env var is parsed
    // (and any warning printed) a single time.
    RunnerOptions resolved = opts;
    if (resolved.jobs <= 0)
        resolved.jobs = defaultJobs();

    auto t0 = std::chrono::steady_clock::now();
    std::vector<ConfigRun> matrix = runMatrix(suite, resolved);
    auto t1 = std::chrono::steady_clock::now();

    MatrixReport meta;
    meta.bench = bench;
    meta.suiteSize = suite.size();
    meta.jobs = resolved.jobs;
    meta.wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    writeMatrixReport("BENCH_" + bench + ".json", meta, suite,
                      matrix);
    return matrix;
}

} // namespace dms
