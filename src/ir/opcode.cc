#include "ir/opcode.h"

#include "support/diag.h"

namespace dms {

const char *
opcodeName(Opcode opc)
{
    switch (opc) {
      case Opcode::Load: return "load";
      case Opcode::Store: return "store";
      case Opcode::Add: return "add";
      case Opcode::Sub: return "sub";
      case Opcode::Const: return "const";
      case Opcode::Mul: return "mul";
      case Opcode::Div: return "div";
      case Opcode::Copy: return "copy";
      case Opcode::Move: return "move";
      default: break;
    }
    panic("bad opcode %d", static_cast<int>(opc));
}

bool
opcodeFromName(std::string_view name, Opcode &out)
{
    for (int i = 0; i < kNumOpcodes; ++i) {
        if (name == opcodeName(static_cast<Opcode>(i))) {
            out = static_cast<Opcode>(i);
            return true;
        }
    }
    return false;
}

const char *
fuClassName(FuClass cls)
{
    switch (cls) {
      case FuClass::LdSt: return "LS";
      case FuClass::Add: return "ADD";
      case FuClass::Mul: return "MUL";
      case FuClass::Copy: return "COPY";
      default: break;
    }
    panic("bad fu class %d", static_cast<int>(cls));
}

FuClass
fuClassOf(Opcode opc)
{
    switch (opc) {
      case Opcode::Load:
      case Opcode::Store:
        return FuClass::LdSt;
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Const:
        return FuClass::Add;
      case Opcode::Mul:
      case Opcode::Div:
        return FuClass::Mul;
      case Opcode::Copy:
      case Opcode::Move:
        return FuClass::Copy;
      default:
        break;
    }
    panic("bad opcode %d", static_cast<int>(opc));
}

int
opcodeArity(Opcode opc)
{
    switch (opc) {
      case Opcode::Load:
      case Opcode::Const:
        return 0;
      case Opcode::Store:
      case Opcode::Copy:
      case Opcode::Move:
        return 1;
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::Div:
        return 2;
      default:
        break;
    }
    panic("bad opcode %d", static_cast<int>(opc));
}

bool
producesValue(Opcode opc)
{
    return opc != Opcode::Store;
}

bool
isUseful(Opcode opc)
{
    return opc != Opcode::Copy && opc != Opcode::Move;
}

LatencyModel::LatencyModel()
{
    set(Opcode::Load, 2);
    set(Opcode::Store, 1);
    set(Opcode::Add, 1);
    set(Opcode::Sub, 1);
    set(Opcode::Const, 1);
    set(Opcode::Mul, 2);
    set(Opcode::Div, 8);
    set(Opcode::Copy, 1);
    set(Opcode::Move, 1);
}

void
LatencyModel::set(Opcode opc, int cycles)
{
    DMS_ASSERT(cycles >= 0, "negative latency");
    lat_[static_cast<int>(opc)] = cycles;
}

} // namespace dms
