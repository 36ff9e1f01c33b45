#include "isa/instruction.hh"

#include "common/logging.hh"

namespace ff
{
namespace isa
{

namespace detail
{

const OpInfo kOpTable[] = {
    /* kNop  */ {"nop", UnitClass::kAlu, 1, 0},
    /* kHalt */ {"halt", UnitClass::kAlu, 1, 0},
    /* kAdd  */ {"add", UnitClass::kAlu, 1, 0},
    /* kSub  */ {"sub", UnitClass::kAlu, 1, 0},
    /* kAnd  */ {"and", UnitClass::kAlu, 1, 0},
    /* kOr   */ {"or", UnitClass::kAlu, 1, 0},
    /* kXor  */ {"xor", UnitClass::kAlu, 1, 0},
    /* kShl  */ {"shl", UnitClass::kAlu, 1, 0},
    /* kShr  */ {"shr", UnitClass::kAlu, 1, 0},
    /* kSra  */ {"sra", UnitClass::kAlu, 1, 0},
    /* kMul  */ {"mul", UnitClass::kAlu, 3, 0},
    /* kMov  */ {"mov", UnitClass::kAlu, 1, 0},
    /* kMovi */ {"movi", UnitClass::kAlu, 1, 0},
    /* kCmp  */ {"cmp", UnitClass::kAlu, 1, 0},
    /* kItof */ {"itof", UnitClass::kAlu, 2, 0},
    /* kFtoi */ {"ftoi", UnitClass::kAlu, 2, 0},
    /* kFadd */ {"fadd", UnitClass::kFp, 4, 0},
    /* kFsub */ {"fsub", UnitClass::kFp, 4, 0},
    /* kFmul */ {"fmul", UnitClass::kFp, 4, 0},
    /* kFdiv */ {"fdiv", UnitClass::kFp, 16, 0},
    /* kFcmp */ {"fcmp", UnitClass::kFp, 2, 0},
    /* kLd4  */ {"ld4", UnitClass::kMem, 0, 4},
    /* kLd8  */ {"ld8", UnitClass::kMem, 0, 8},
    /* kSt4  */ {"st4", UnitClass::kMem, 1, 4},
    /* kSt8  */ {"st8", UnitClass::kMem, 1, 8},
    /* kBr   */ {"br", UnitClass::kBranch, 1, 0},
};

static_assert(sizeof(kOpTable) / sizeof(kOpTable[0]) ==
                  static_cast<std::size_t>(Opcode::kNumOpcodes),
              "opcode table out of sync");

void
badOpcode(std::size_t i)
{
    ff_panic("bad opcode ", i);
}

} // namespace detail

RegId
slotReg(unsigned slot)
{
    if (slot < kNumIntRegs)
        return intReg(slot);
    slot -= kNumIntRegs;
    if (slot < kNumFpRegs)
        return fpReg(slot);
    slot -= kNumFpRegs;
    ff_panic_if(slot >= kNumPredRegs, "bad register slot");
    return predReg(slot);
}

std::string
regName(RegId r)
{
    switch (r.cls) {
      case RegClass::kNone:
        return "-";
      case RegClass::kInt:
        return "r" + std::to_string(r.idx);
      case RegClass::kFp:
        return "f" + std::to_string(r.idx);
      case RegClass::kPred:
        return "p" + std::to_string(r.idx);
    }
    return "?";
}

const char *
condName(CmpCond c)
{
    switch (c) {
      case CmpCond::kEq: return "eq";
      case CmpCond::kNe: return "ne";
      case CmpCond::kLt: return "lt";
      case CmpCond::kLe: return "le";
      case CmpCond::kGt: return "gt";
      case CmpCond::kGe: return "ge";
      case CmpCond::kLtu: return "ltu";
    }
    return "?";
}

} // namespace isa
} // namespace ff
