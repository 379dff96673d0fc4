#ifndef DMS_IR_OPCODE_H
#define DMS_IR_OPCODE_H

/**
 * @file
 * Operation opcodes for innermost-loop bodies, the functional-unit
 * classes that execute them, and the default latency model.
 *
 * The machine model of the paper gives each cluster one load/store
 * unit, one adder, one multiplier, and one copy unit. The copy unit
 * executes the two "bookkeeping" opcodes the paper introduces:
 *
 *  - @c Copy : duplicates a value inside a cluster (single-use
 *    lifetime pre-pass, paper section 3, last paragraph);
 *  - @c Move : forwards a value one ring hop, reading one CQRF and
 *    writing the next (chain operations, paper figure 3).
 *
 * Copy and Move are never counted as useful work in IPC figures,
 * exactly as in the paper's evaluation.
 */

#include <cstdint>
#include <string_view>

namespace dms {

/** Opcode of a loop-body operation. */
enum class Opcode : std::uint8_t {
    Load,   ///< memory read, executes on the L/S unit
    Store,  ///< memory write, executes on the L/S unit
    Add,    ///< integer/float addition
    Sub,    ///< subtraction (adder class)
    Const,  ///< literal generator (adder class)
    Mul,    ///< multiplication
    Div,    ///< division (multiplier class, long latency)
    Copy,   ///< intra-cluster duplicate (copy unit, not useful work)
    Move,   ///< inter-cluster one-hop forward (copy unit, not useful)
    kNumOpcodes,
};

inline constexpr int kNumOpcodes =
    static_cast<int>(Opcode::kNumOpcodes);

/** Functional-unit class an opcode executes on. */
enum class FuClass : std::uint8_t {
    LdSt,  ///< load/store unit
    Add,   ///< adder
    Mul,   ///< multiplier
    Copy,  ///< copy unit (copy and move operations only)
    kNumClasses,
};

inline constexpr int kNumFuClasses =
    static_cast<int>(FuClass::kNumClasses);

/** Short mnemonic, e.g. "mul". */
const char *opcodeName(Opcode opc);

/** Inverse of opcodeName(); false for any other spelling. */
bool opcodeFromName(std::string_view name, Opcode &out);

/** Short class name, e.g. "MUL". */
const char *fuClassName(FuClass cls);

/** FU class that executes the given opcode. */
FuClass fuClassOf(Opcode opc);

/** Number of data operands the opcode consumes (0, 1 or 2). */
int opcodeArity(Opcode opc);

/** True if the opcode produces a register value. */
bool producesValue(Opcode opc);

/**
 * True if the opcode performs useful computation. Copy and Move are
 * bookkeeping introduced by partitioning; the paper excludes them
 * from all performance figures.
 */
bool isUseful(Opcode opc);

/**
 * Operation latency table. Values are typical for late-90s VLIW
 * cores and configurable per machine model; the paper does not
 * publish its latencies, so these defaults are documented in
 * DESIGN.md and used everywhere.
 */
class LatencyModel
{
  public:
    /** Build the default table. */
    LatencyModel();

    /** Latency in cycles of an opcode's result. */
    int of(Opcode opc) const { return lat_[static_cast<int>(opc)]; }

    /** Override one opcode's latency (tests and ablations). */
    void set(Opcode opc, int cycles);

  private:
    int lat_[kNumOpcodes];
};

} // namespace dms

#endif // DMS_IR_OPCODE_H
