#include "workload/text.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ir/verify.h"
#include "support/diag.h"
#include "support/strings.h"

namespace dms {

namespace {

/**
 * Error-carrying parse state. Every helper returns false after
 * fail(); the public entry points either propagate the message
 * or fatal() with it, so the strict one-exit-per-line behaviour of
 * the original parser is preserved for the CLI while the service
 * can reject a request without dying. A message quotes a token
 * through a std::string copy, so a token with an embedded NUL is
 * quoted up to the NUL.
 */
struct ParseState
{
    std::string error;

    __attribute__((format(printf, 2, 3))) bool
    fail(const char *fmt, ...)
    {
        va_list ap;
        va_start(ap, fmt);
        error = vstrfmt(fmt, ap);
        va_end(ap);
        return false;
    }
};

bool
depKindFromName(std::string_view name, int line, DepKind &out,
                ParseState &ps)
{
    if (name == "flow")
        out = DepKind::Flow;
    else if (name == "anti")
        out = DepKind::Anti;
    else if (name == "output")
        out = DepKind::Output;
    else if (name == "memory")
        out = DepKind::Memory;
    else
        return ps.fail("line %d: unknown dependence kind '%s'",
                       line, std::string(name).c_str());
    return true;
}

/** One key=value attribute a directive reads. */
struct Attr
{
    const char *key;
    std::string_view value = {};
    bool present = false;
};

/**
 * Match the "key=value" fields from @p from on against @p attrs.
 * Every field must hold exactly one '='; keys no directive reads
 * are ignored, and a repeated key keeps its last value.
 */
template <size_t N>
bool
readAttrs(const std::vector<std::string_view> &fields, size_t from,
          int line, Attr (&attrs)[N], ParseState &ps)
{
    for (size_t i = from; i < fields.size(); ++i) {
        const std::string_view f = fields[i];
        const size_t eq = f.find('=');
        if (eq == std::string_view::npos ||
            f.find('=', eq + 1) != std::string_view::npos) {
            return ps.fail("line %d: bad attribute '%s'", line,
                           std::string(f).c_str());
        }
        for (Attr &a : attrs) {
            if (f.substr(0, eq) == a.key) {
                a.value = f.substr(eq + 1);
                a.present = true;
            }
        }
    }
    return true;
}

/**
 * Integer attribute value. @p allow_negative selects the signed
 * parse — offsets and const literals are signed in the format,
 * everything else (ids, distances, slots, latencies) is not.
 */
bool
attrInt(const Attr &a, int fallback, int line, int &out,
        ParseState &ps, bool allow_negative = false)
{
    if (!a.present) {
        out = fallback;
        return true;
    }
    bool ok = allow_negative ? parseSignedInt(a.value, out)
                             : parseInt(a.value, out);
    if (!ok)
        return ps.fail("line %d: bad integer for %s", line, a.key);
    return true;
}

/** The fields of one trimmed line: split on ' ' only, none empty. */
void
splitFields(std::string_view line, std::vector<std::string_view> &out)
{
    out.clear();
    size_t i = 0;
    while (i < line.size()) {
        size_t end = line.find(' ', i);
        if (end == std::string_view::npos)
            end = line.size();
        if (end > i)
            out.push_back(line.substr(i, end - i));
        i = end + 1;
    }
}

/**
 * File op id -> ddg op id. Ops nearly always arrive in ascending
 * id order (canonical text, and spellings that shift or space the
 * ids out), so those ids sit in a flat ascending table searched by
 * bisection, where entry i names ddg op i. From the first id that
 * arrives out of order on, ids go to a hash map instead.
 */
class FileIds
{
  public:
    OpId
    find(int fid) const
    {
        auto it = std::lower_bound(ascending_.begin(),
                                   ascending_.end(), fid);
        if (it != ascending_.end() && *it == fid)
            return static_cast<OpId>(it - ascending_.begin());
        if (others_.empty())
            return kInvalidOp;
        auto h = others_.find(fid);
        return h == others_.end() ? kInvalidOp : h->second;
    }

    void
    add(int fid, OpId id)
    {
        if (others_.empty() &&
            (ascending_.empty() || fid > ascending_.back()))
            ascending_.push_back(fid);
        else
            others_.emplace(fid, id);
    }

  private:
    std::vector<int> ascending_;
    std::unordered_map<int, OpId> others_;
};

} // namespace

std::string
loopToText(const Loop &loop)
{
    const Ddg &g = loop.ddg;
    std::string out;
    out.reserve(loop.name.size() + 32 +
                32 * static_cast<size_t>(g.numOps() + g.numEdges()));
    // Through c_str(), as the pinned canonical bytes have it: a name
    // with an embedded NUL serializes as its prefix.
    out += "loop ";
    out += loop.name.c_str();
    appendInt(out, " trip ", loop.tripCount);
    out += '\n';
    // Canonical ids: live ops renumbered densely in id order, so a
    // graph with holes (dead ops) serializes identically to its
    // re-parsed self and the text is a stable cache key.
    std::vector<int> dense(static_cast<size_t>(g.numOps()), -1);
    int next = 0;
    for (OpId id = 0; id < g.numOps(); ++id) {
        if (!g.opLive(id))
            continue;
        dense[static_cast<size_t>(id)] = next;
        const Operation &o = g.op(id);
        appendInt(out, "op ", next++);
        out += ' ';
        out += opcodeName(o.opc);
        if (o.memStream >= 0)
            appendInt(out, " stream=", o.memStream);
        if (o.memOffset != 0)
            appendInt(out, " offset=", o.memOffset);
        if (o.opc == Opcode::Const)
            appendInt(out, " lit=", o.literal);
        out += '\n';
    }
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        if (!g.edgeLive(e))
            continue;
        const Edge &ed = g.edge(e);
        const int src = dense[static_cast<size_t>(ed.src)];
        const int dst = dense[static_cast<size_t>(ed.dst)];
        DMS_ASSERT(src >= 0 && dst >= 0, "live edge %d touches a dead op",
                   e);
        appendInt(out, "edge ", src);
        appendInt(out, " ", dst);
        out += ' ';
        out += depKindName(ed.kind);
        appendInt(out, " dist=", ed.distance);
        if (ed.kind == DepKind::Flow)
            appendInt(out, " slot=", ed.operandIndex);
        else
            appendInt(out, " lat=", ed.latency);
        out += '\n';
    }
    return out;
}

bool
loopFromText(const std::string &text, Loop &out, std::string &error,
             const LatencyModel &lat)
{
    ParseState ps;
    out = Loop();
    out.name = "unnamed";
    FileIds ids;
    std::vector<std::string_view> f;

    const std::string_view all(text);
    int line_no = 0;
    for (size_t pos = 0; pos <= all.size();) {
        ++line_no;
        size_t eol = all.find('\n', pos);
        if (eol == std::string_view::npos)
            eol = all.size();
        const std::string_view line =
            trimView(all.substr(pos, eol - pos));
        pos = eol + 1;
        if (line.empty() || line[0] == '#')
            continue;
        splitFields(line, f);

        if (f[0] == "loop") {
            if (f.size() < 2) {
                ps.fail("line %d: loop needs a name", line_no);
                break;
            }
            out.name = std::string(f[1]);
            if (f.size() >= 4 && f[2] == "trip") {
                int trip = 0;
                if (!parseInt(f[3], trip)) {
                    ps.fail("line %d: bad trip count", line_no);
                    break;
                }
                out.tripCount = trip;
            }
        } else if (f[0] == "op") {
            if (f.size() < 3) {
                ps.fail("line %d: op needs id and opcode", line_no);
                break;
            }
            int fid = 0;
            if (!parseInt(f[1], fid)) {
                ps.fail("line %d: bad op id", line_no);
                break;
            }
            if (ids.find(fid) != kInvalidOp) {
                ps.fail("line %d: duplicate op id %d", line_no, fid);
                break;
            }
            Opcode opc = Opcode::Add;
            if (!opcodeFromName(f[2], opc)) {
                ps.fail("line %d: unknown opcode '%s'", line_no,
                        std::string(f[2]).c_str());
                break;
            }
            Attr a[] = {{"stream"}, {"offset"}, {"lit"}};
            if (!readAttrs(f, 3, line_no, a, ps))
                break;
            int stream = -1;
            int offset = 0;
            int literal = 0;
            if (!attrInt(a[0], -1, line_no, stream, ps) ||
                !attrInt(a[1], 0, line_no, offset, ps,
                         /*allow_negative=*/true) ||
                !attrInt(a[2], 0, line_no, literal, ps,
                         /*allow_negative=*/true)) {
                break;
            }
            OpId id = out.ddg.addOp(opc);
            Operation &o = out.ddg.op(id);
            o.memStream = stream;
            o.memOffset = offset;
            o.literal = literal;
            ids.add(fid, id);
        } else if (f[0] == "edge") {
            if (f.size() < 4) {
                ps.fail("line %d: edge needs src dst kind",
                        line_no);
                break;
            }
            int src = 0;
            int dst = 0;
            if (!parseInt(f[1], src) || !parseInt(f[2], dst)) {
                ps.fail("line %d: bad edge endpoints", line_no);
                break;
            }
            const OpId s = ids.find(src);
            const OpId d = ids.find(dst);
            if (s == kInvalidOp || d == kInvalidOp) {
                ps.fail("line %d: edge references unknown op",
                        line_no);
                break;
            }
            DepKind kind = DepKind::Flow;
            if (!depKindFromName(f[3], line_no, kind, ps))
                break;
            Attr a[] = {{"dist"}, {"slot"}, {"lat"}};
            if (!readAttrs(f, 4, line_no, a, ps))
                break;
            int dist = 0;
            if (!attrInt(a[0], 0, line_no, dist, ps))
                break;
            if (kind == DepKind::Flow) {
                int slot = 0;
                if (!attrInt(a[1], 0, line_no, slot, ps))
                    break;
                if (slot != 0 && slot != 1) {
                    ps.fail("line %d: flow slot must be 0 or 1 "
                            "(got %d)",
                            line_no, slot);
                    break;
                }
                const Opcode from = out.ddg.op(s).opc;
                if (!producesValue(from)) {
                    ps.fail("line %d: flow edge from op %d, "
                            "which produces no value",
                            line_no, src);
                    break;
                }
                out.ddg.addEdge(s, d, kind, dist, lat.of(from), slot);
            } else {
                int fallback = kind == DepKind::Anti ? 0 : 1;
                int l = 0;
                if (!attrInt(a[2], fallback, line_no, l, ps))
                    break;
                out.ddg.addEdge(s, d, kind, dist, l);
            }
        } else {
            ps.fail("line %d: unknown directive '%s'", line_no,
                    std::string(f[0]).c_str());
            break;
        }
    }

    if (!ps.error.empty()) {
        error = ps.error;
        return false;
    }
    auto problems = verifyDdg(out.ddg);
    if (!problems.empty()) {
        error = strfmt("invalid loop '%s': %s", out.name.c_str(),
                       problems[0].c_str());
        return false;
    }
    return true;
}

Loop
loopFromText(const std::string &text, const LatencyModel &lat)
{
    Loop loop;
    std::string error;
    if (!loopFromText(text, loop, error, lat))
        fatal("%s", error.c_str());
    return loop;
}

bool
loadLoopSpec(const std::string &spec, Loop &out, std::string &error,
             const LatencyModel &lat)
{
    if (spec.rfind("kernel:", 0) == 0) {
        std::string name = spec.substr(7);
        for (Loop &k : namedKernels()) {
            if (k.name == name) {
                out = std::move(k);
                return true;
            }
        }
        error = strfmt("unknown kernel '%s'", name.c_str());
        return false;
    }
    std::ifstream in(spec);
    if (!in) {
        error = strfmt("cannot open '%s'", spec.c_str());
        return false;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    return loopFromText(ss.str(), out, error, lat);
}

} // namespace dms
