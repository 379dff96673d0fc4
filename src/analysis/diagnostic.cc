#include "analysis/diagnostic.h"

#include <algorithm>

#include "support/diag.h"

namespace dms {

const char *
severityName(Severity s)
{
    switch (s) {
    case Severity::Note:
        return "note";
    case Severity::Warning:
        return "warning";
    case Severity::Error:
        return "error";
    }
    return "?";
}

const char *
artifactKindName(ArtifactKind kind)
{
    switch (kind) {
    case ArtifactKind::Machine:
        return "machine";
    case ArtifactKind::MachineTemplate:
        return "machine-template";
    case ArtifactKind::Loop:
        return "loop";
    case ArtifactKind::Schedule:
        return "schedule";
    case ArtifactKind::QueueAlloc:
        return "queue-alloc";
    case ArtifactKind::Kernel:
        return "kernel";
    case ArtifactKind::Metrics:
        return "metrics";
    case ArtifactKind::Trace:
        return "trace";
    }
    return "?";
}

bool
DiagLocation::any() const
{
    return line > 0 || op != kInvalidOp || edge != kInvalidEdge ||
           cycle >= 0 || cluster != kInvalidCluster || link >= 0;
}

std::string
DiagLocation::str() const
{
    std::string out;
    auto append = [&](const std::string &part) {
        if (!out.empty())
            out += ", ";
        out += part;
    };
    if (op != kInvalidOp)
        append(strfmt("op %d", op));
    if (edge != kInvalidEdge)
        append(strfmt("edge %d", edge));
    if (cycle >= 0)
        append(strfmt("cycle %d", cycle));
    if (cluster != kInvalidCluster)
        append(strfmt("cluster %d", cluster));
    if (link >= 0)
        append(strfmt("link %d", link));
    return out;
}

std::string
Diagnostic::render() const
{
    std::string out = strfmt("%s[%s] ", severityName(severity),
                             checkId.c_str());
    out += subject;
    if (loc.line > 0)
        out += strfmt(":%d", loc.line);
    out += ": ";
    out += message;
    const std::string coords = loc.str();
    if (!coords.empty())
        out += strfmt(" (%s)", coords.c_str());
    return out;
}

void
DiagnosticSink::report(const char *check_id, Severity severity,
                       ArtifactKind artifact,
                       const DiagLocation &loc, std::string message)
{
    Diagnostic d;
    d.checkId = check_id;
    d.severity = severity;
    d.artifact = artifact;
    d.subject = subject_;
    d.loc = loc;
    d.message = std::move(message);
    diags_.push_back(std::move(d));
}

int
DiagnosticSink::count(Severity s) const
{
    int n = 0;
    for (const Diagnostic &d : diags_) {
        if (d.severity == s)
            ++n;
    }
    return n;
}

Severity
DiagnosticSink::maxSeverity() const
{
    Severity max = Severity::Note;
    for (const Diagnostic &d : diags_)
        max = std::max(max, d.severity);
    return max;
}

int
DiagnosticSink::exitCode() const
{
    if (diags_.empty())
        return 0;
    return 1 + static_cast<int>(maxSeverity());
}

std::string
DiagnosticSink::renderText() const
{
    std::string out;
    for (const Diagnostic &d : diags_) {
        out += d.render();
        out += "\n";
    }
    return out;
}

namespace {

/** Minimal JSON string escaping (quotes, backslash, control). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strfmt("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

} // namespace

std::string
DiagnosticSink::renderJson() const
{
    std::string out = "[\n";
    for (size_t i = 0; i < diags_.size(); ++i) {
        const Diagnostic &d = diags_[i];
        out += strfmt("  {\"check\": \"%s\", \"severity\": \"%s\", "
                      "\"artifact\": \"%s\", \"subject\": \"%s\"",
                      jsonEscape(d.checkId).c_str(),
                      severityName(d.severity),
                      artifactKindName(d.artifact),
                      jsonEscape(d.subject).c_str());
        if (d.loc.line > 0)
            out += strfmt(", \"line\": %d", d.loc.line);
        if (d.loc.op != kInvalidOp)
            out += strfmt(", \"op\": %d", d.loc.op);
        if (d.loc.edge != kInvalidEdge)
            out += strfmt(", \"edge\": %d", d.loc.edge);
        if (d.loc.cycle >= 0)
            out += strfmt(", \"cycle\": %d", d.loc.cycle);
        if (d.loc.cluster != kInvalidCluster)
            out += strfmt(", \"cluster\": %d", d.loc.cluster);
        if (d.loc.link >= 0)
            out += strfmt(", \"link\": %d", d.loc.link);
        out += strfmt(", \"message\": \"%s\"}%s\n",
                      jsonEscape(d.message).c_str(),
                      i + 1 < diags_.size() ? "," : "");
    }
    out += "]\n";
    return out;
}

} // namespace dms
