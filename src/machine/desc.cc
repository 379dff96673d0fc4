#include "machine/desc.h"

#include <array>
#include <vector>

#include "support/diag.h"
#include "support/strings.h"

namespace dms {

namespace {

/**
 * Split one line (comment already cut) on spaces and tabs into
 * @p toks, dropping empty fields.
 */
void
tokenize(std::string_view line, std::vector<std::string_view> &toks)
{
    toks.clear();
    size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() &&
               (line[i] == ' ' || line[i] == '\t'))
            ++i;
        size_t start = i;
        while (i < line.size() && line[i] != ' ' && line[i] != '\t')
            ++i;
        if (i > start)
            toks.push_back(line.substr(start, i - start));
    }
}

/** "key=value" split at the first '='; false unless both non-empty. */
bool
splitKeyValue(std::string_view tok, std::string_view &key,
              std::string_view &value)
{
    size_t eq = tok.find('=');
    if (eq == std::string_view::npos || eq == 0 ||
        eq + 1 >= tok.size()) {
        return false;
    }
    key = tok.substr(0, eq);
    value = tok.substr(eq + 1);
    return true;
}

bool
fuClassByKey(std::string_view key, FuClass &out)
{
    if (key == "ldst") {
        out = FuClass::LdSt;
    } else if (key == "add") {
        out = FuClass::Add;
    } else if (key == "mul") {
        out = FuClass::Mul;
    } else if (key == "copy") {
        out = FuClass::Copy;
    } else {
        return false;
    }
    return true;
}

/** Mutable parse state; committed to a MachineModel at the end. */
struct ParseState
{
    std::string name;
    int clusters = 1;
    TopologyKind topo = TopologyKind::Ring;
    int meshRows = 0;
    int meshCols = 0;
    RegFileKind regfile = RegFileKind::Conventional;
    std::array<int, kNumFuClasses> fus = {1, 1, 1, 0};
    LatencyModel lat;

    bool sawMachine = false;
    bool sawClusters = false;
    bool sawTopology = false;
    bool sawRegfile = false;
    bool sawFus = false;

    /**
     * Opcodes already given a latency. Several `latency` lines are
     * fine; the same opcode twice is a silent last-writer-wins
     * hazard, so it is rejected.
     */
    std::array<bool, kNumOpcodes> sawLatency{};

    /**
     * Lines the shape keys appeared on, so validation that spans
     * several lines (mesh dims vs cluster count, queue files vs
     * copy units) can still point at the offending line.
     */
    int topologyLine = 0;
    int regfileLine = 0;
};

} // namespace

bool
machineFromText(const std::string &text, MachineModel &out,
                std::string &error)
{
    ParseState st;
    std::vector<std::string_view> toks;
    int lineno = 0;
    // A message quotes a token through a std::string copy, so a
    // token with an embedded NUL is quoted up to the NUL.
    auto fail = [&](const std::string &msg) {
        error = strfmt("line %d: %s", lineno, msg.c_str());
        return false;
    };

    const std::string_view all(text);
    for (size_t pos = 0; pos <= all.size();) {
        ++lineno;
        size_t eol = all.find('\n', pos);
        if (eol == std::string_view::npos)
            eol = all.size();
        std::string_view line = all.substr(pos, eol - pos);
        pos = eol + 1;
        line = line.substr(0, line.find('#'));
        tokenize(line, toks);
        if (toks.empty())
            continue;
        const std::string_view key = toks[0];

        if (key == "machine") {
            if (st.sawMachine)
                return fail("duplicate 'machine'");
            if (toks.size() != 2)
                return fail("'machine' takes exactly one name");
            st.name = std::string(toks[1]);
            st.sawMachine = true;
        } else if (key == "clusters") {
            if (st.sawClusters)
                return fail("duplicate 'clusters'");
            int v = 0;
            if (toks.size() != 2 || !parseInt(toks[1], v) || v < 1)
                return fail("'clusters' needs a positive integer");
            st.clusters = v;
            st.sawClusters = true;
        } else if (key == "topology") {
            if (st.sawTopology)
                return fail("duplicate 'topology'");
            st.sawTopology = true;
            st.topologyLine = lineno;
            if (toks.size() == 2 && toks[1] == "ring") {
                st.topo = TopologyKind::Ring;
            } else if (toks.size() == 2 && toks[1] == "crossbar") {
                st.topo = TopologyKind::Crossbar;
            } else if (toks.size() == 3 && toks[1] == "mesh") {
                st.topo = TopologyKind::Mesh;
                const std::string_view dims = toks[2];
                const size_t x = dims.find('x');
                int r = 0, c = 0;
                if (x == std::string_view::npos ||
                    dims.find('x', x + 1) != std::string_view::npos ||
                    !parseInt(dims.substr(0, x), r) ||
                    !parseInt(dims.substr(x + 1), c) || r < 1 ||
                    c < 1) {
                    return fail("mesh dims must be RxC, e.g. "
                                "'topology mesh 2x3'");
                }
                st.meshRows = r;
                st.meshCols = c;
            } else {
                return fail("topology must be 'ring', 'crossbar' "
                            "or 'mesh RxC'");
            }
        } else if (key == "regfile") {
            if (st.sawRegfile)
                return fail("duplicate 'regfile'");
            st.sawRegfile = true;
            st.regfileLine = lineno;
            if (toks.size() == 2 && toks[1] == "queues") {
                st.regfile = RegFileKind::Queues;
            } else if (toks.size() == 2 &&
                       toks[1] == "conventional") {
                st.regfile = RegFileKind::Conventional;
            } else {
                return fail("regfile must be 'queues' or "
                            "'conventional'");
            }
        } else if (key == "fus") {
            if (st.sawFus)
                return fail("duplicate 'fus'");
            st.sawFus = true;
            if (toks.size() < 2)
                return fail("'fus' needs class=count entries");
            std::array<bool, kNumFuClasses> seen{};
            for (size_t i = 1; i < toks.size(); ++i) {
                std::string_view k, v;
                FuClass cls;
                int n = 0;
                if (!splitKeyValue(toks[i], k, v))
                    return fail(strfmt("malformed fus entry '%s'",
                                       std::string(toks[i]).c_str()));
                if (!fuClassByKey(k, cls))
                    return fail(strfmt("unknown FU class '%s' "
                                       "(ldst|add|mul|copy)",
                                       std::string(k).c_str()));
                if (seen[static_cast<size_t>(cls)])
                    return fail(strfmt("duplicate FU class '%s'; "
                                       "an earlier entry already "
                                       "set it",
                                       std::string(k).c_str()));
                seen[static_cast<size_t>(cls)] = true;
                if (!parseInt(v, n) || n > 64)
                    return fail(strfmt("FU count '%s' out of range "
                                       "[0, 64]",
                                       std::string(v).c_str()));
                st.fus[static_cast<size_t>(cls)] = n;
            }
        } else if (key == "latency") {
            if (toks.size() < 2)
                return fail("'latency' needs opcode=cycles entries");
            for (size_t i = 1; i < toks.size(); ++i) {
                std::string_view k, v;
                Opcode opc;
                int n = 0;
                if (!splitKeyValue(toks[i], k, v))
                    return fail(strfmt("malformed latency entry "
                                       "'%s'",
                                       std::string(toks[i]).c_str()));
                if (!opcodeFromName(k, opc))
                    return fail(strfmt("unknown opcode '%s'",
                                       std::string(k).c_str()));
                if (st.sawLatency[static_cast<size_t>(opc)])
                    return fail(strfmt("duplicate latency for "
                                       "opcode '%s'; an earlier "
                                       "entry already set it",
                                       std::string(k).c_str()));
                st.sawLatency[static_cast<size_t>(opc)] = true;
                if (!parseInt(v, n))
                    return fail(strfmt("latency '%s' is not a "
                                       "non-negative integer",
                                       std::string(v).c_str()));
                st.lat.set(opc, n);
            }
        } else {
            return fail(strfmt("unknown key '%s'",
                               std::string(key).c_str()));
        }
    }

    // Shape validation mirrors MachineModel::custom() but reports
    // instead of panicking: this is user input. The checks span
    // several lines, so each error points at the line that set the
    // constraint. The product is taken in 64 bits — RxC near
    // INT_MAX must not wrap around into a value that happens to
    // pass the comparison.
    if (st.topo == TopologyKind::Mesh &&
        static_cast<long long>(st.meshRows) * st.meshCols !=
            st.clusters) {
        error = strfmt("line %d: mesh %dx%d does not cover %d "
                       "clusters", st.topologyLine, st.meshRows,
                       st.meshCols, st.clusters);
        return false;
    }
    // `regfile queues` is honoured on every topology (each
    // directed link gets a CQRF); what it always demands on a
    // multi-cluster machine is a copy unit to drive the links.
    if (st.regfile == RegFileKind::Queues && st.clusters > 1 &&
        st.fus[static_cast<size_t>(FuClass::Copy)] < 1) {
        error = strfmt("line %d: a multi-cluster queue-file "
                       "machine needs copy units (fus copy=...)",
                       st.regfileLine);
        return false;
    }

    out = MachineModel::custom(st.clusters, st.regfile, st.fus,
                               st.topo, st.meshRows, st.meshCols);
    out.latency() = st.lat;
    out.setName(st.name);
    return true;
}

MachineModel
machineFromTextOrDie(const std::string &text)
{
    MachineModel m = MachineModel::unclustered(1);
    std::string error;
    if (!machineFromText(text, m, error))
        fatal("bad machine description: %s", error.c_str());
    return m;
}

std::string
machineToText(const MachineModel &machine)
{
    std::string out;
    out.reserve(128);
    if (!machine.name().empty()) {
        // Through c_str(), as the pinned canonical bytes have it: a
        // name with an embedded NUL serializes as its prefix.
        out += "machine ";
        out += machine.name().c_str();
        out += '\n';
    }
    appendInt(out, "clusters ", machine.numClusters());
    out += "\ntopology ";
    if (machine.topology() == TopologyKind::Mesh) {
        appendInt(out, "mesh ", machine.meshRows());
        appendInt(out, "x", machine.meshCols());
    } else {
        out += topologyName(machine.topology());
    }
    out += machine.regFileKind() == RegFileKind::Queues
               ? "\nregfile queues\n"
               : "\nregfile conventional\n";
    appendInt(out, "fus ldst=", machine.fusPerCluster(FuClass::LdSt));
    appendInt(out, " add=", machine.fusPerCluster(FuClass::Add));
    appendInt(out, " mul=", machine.fusPerCluster(FuClass::Mul));
    appendInt(out, " copy=", machine.fusPerCluster(FuClass::Copy));
    out += '\n';
    const LatencyModel defaults;
    for (int i = 0; i < kNumOpcodes; ++i) {
        Opcode opc = static_cast<Opcode>(i);
        if (machine.latencyOf(opc) != defaults.of(opc)) {
            out += "latency ";
            out += opcodeName(opc);
            appendInt(out, "=", machine.latencyOf(opc));
            out += '\n';
        }
    }
    return out;
}

std::string
expandMachineTemplate(std::string_view tmpl, int clusters)
{
    std::string out;
    out.reserve(tmpl.size() + 8);
    const std::string value = strfmt("%d", clusters);
    for (size_t i = 0; i < tmpl.size(); ++i) {
        if (tmpl[i] == '$' && i + 1 < tmpl.size() &&
            tmpl[i + 1] == 'C') {
            out += value;
            ++i;
        } else {
            out += tmpl[i];
        }
    }
    return out;
}

} // namespace dms
