/**
 * @file
 * Core ISA definitions for the ffvm virtual EPIC architecture: an
 * Itanium-flavoured, fully predicated, explicitly issue-grouped
 * instruction set. It is intentionally small but carries everything
 * the paper's phenomena need: predication, stop bits, variable
 * latency loads, multi-cycle integer/FP operations, and compare
 * instructions writing complementary predicate pairs.
 */

#ifndef FF_ISA_ISA_HH
#define FF_ISA_ISA_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace ff
{
namespace isa
{

/** Number of integer registers (r0 is hardwired to zero). */
inline constexpr unsigned kNumIntRegs = 64;
/** Number of floating-point registers (f0 is hardwired to +0.0). */
inline constexpr unsigned kNumFpRegs = 64;
/** Number of 1-bit predicate registers (p0 is hardwired to true). */
inline constexpr unsigned kNumPredRegs = 64;

/** Architectural register class. */
enum class RegClass : std::uint8_t
{
    kNone, ///< operand slot unused
    kInt,  ///< general-purpose integer register
    kFp,   ///< floating-point register
    kPred, ///< 1-bit predicate register
};

/** A register operand: class plus index within the class's file. */
struct RegId
{
    RegClass cls = RegClass::kNone;
    std::uint8_t idx = 0;

    bool valid() const { return cls != RegClass::kNone; }
    bool operator==(const RegId &) const = default;
};

/** Total dense register slots across all classes. */
inline constexpr unsigned kNumRegSlots =
    kNumIntRegs + kNumFpRegs + kNumPredRegs;

/** The first predicate slot; a predicate slot holds 0 or 1. */
inline constexpr unsigned kFirstPredSlot = kNumIntRegs + kNumFpRegs;

/**
 * Two constant source slots follow the registers. A decoded source
 * that reads a hardwired register or an unused operand names one of
 * them: r0, f0 and an unused operand read kZeroSlot (0), p0 reads
 * kOneSlot (1). Register state keyed by slot holds these constants
 * and never writes them, so they are never pending or invalid and a
 * read needs no test.
 */
inline constexpr unsigned kZeroSlot = kNumRegSlots;
/** The constant slot p0 reads (1); see kZeroSlot. */
inline constexpr unsigned kOneSlot = kNumRegSlots + 1;

/** Entries of a slot-keyed register array: registers, then constants. */
inline constexpr unsigned kNumSlots = kNumRegSlots + 2;

/**
 * Dense slot index of a register id; -1 for RegClass::kNone. Shared
 * by the register files, scoreboards, the A-file and the analyses.
 */
inline int
regSlot(RegId r)
{
    switch (r.cls) {
      case RegClass::kInt:
        return r.idx;
      case RegClass::kFp:
        return kNumIntRegs + r.idx;
      case RegClass::kPred:
        return kFirstPredSlot + r.idx;
      case RegClass::kNone:
        return -1;
    }
    return -1;
}

/** Inverse of regSlot() over [0, kNumRegSlots); panics past it. */
RegId slotReg(unsigned slot);

/** True if @p r's index fits its class's file (kNone always does). */
inline bool
regInRange(RegId r)
{
    switch (r.cls) {
      case RegClass::kNone:
        return true;
      case RegClass::kInt:
        return r.idx < kNumIntRegs;
      case RegClass::kFp:
        return r.idx < kNumFpRegs;
      case RegClass::kPred:
        return r.idx < kNumPredRegs;
    }
    return false;
}

/** True for r0, f0 and p0, whose reads are constants. */
inline bool
hardwired(RegId r)
{
    return r.valid() && r.idx == 0;
}

/**
 * The slot a read of @p r names: its register slot, or the constant
 * slot of a hardwired register or an unused operand (see kZeroSlot).
 */
inline unsigned
sourceSlot(RegId r)
{
    if (!r.valid())
        return kZeroSlot;
    if (r.idx == 0)
        return r.cls == RegClass::kPred ? kOneSlot : kZeroSlot;
    return static_cast<unsigned>(regSlot(r));
}

/** Convenience constructors mirroring assembly syntax. */
inline RegId intReg(unsigned i)
{
    return {RegClass::kInt, static_cast<std::uint8_t>(i)};
}
inline RegId fpReg(unsigned i)
{
    return {RegClass::kFp, static_cast<std::uint8_t>(i)};
}
inline RegId predReg(unsigned i)
{
    return {RegClass::kPred, static_cast<std::uint8_t>(i)};
}
inline RegId noReg() { return {}; }

/** Functional-unit class an instruction occupies for issue. */
enum class UnitClass : std::uint8_t
{
    kAlu,    ///< integer ALU (also compares, moves, conversions)
    kMem,    ///< load/store unit
    kFp,     ///< floating-point unit
    kBranch, ///< branch unit
};

/** Comparison conditions for CMP/FCMP (signed for integers). */
enum class CmpCond : std::uint8_t
{
    kEq,
    kNe,
    kLt,
    kLe,
    kGt,
    kGe,
    kLtu, ///< unsigned less-than (integer CMP only)
};

/** Opcodes of the ffvm ISA. */
enum class Opcode : std::uint8_t
{
    kNop,
    kHalt, ///< stop simulation; final architectural state is the result

    // Integer ALU (1 cycle unless noted).
    kAdd,
    kSub,
    kAnd,
    kOr,
    kXor,
    kShl,
    kShr, ///< logical right shift
    kSra, ///< arithmetic right shift
    kMul, ///< 3-cycle integer multiply
    kMov,
    kMovi, ///< dst = 64-bit immediate
    kCmp,  ///< writes complementary predicate pair (dst, dst2)

    // Conversions (ALU class).
    kItof, ///< fp dst = (double) signed int src
    kFtoi, ///< int dst = truncated signed value of fp src

    // Floating point (multi-cycle).
    kFadd,
    kFsub,
    kFmul,
    kFdiv, ///< long-latency divide (the "anticipable" latency of Sec. 4)
    kFcmp, ///< FP compare writing a predicate pair

    // Memory. Effective address is [src1 + imm].
    kLd4, ///< sign-extending 32-bit load
    kLd8,
    kSt4, ///< stores low 32 bits of src2
    kSt8,

    // Control. Direction is the qualifying predicate; target is imm
    // (instruction index of an issue-group leader after resolution).
    kBr,

    kNumOpcodes,
};

/** Static properties of an opcode. */
struct OpInfo
{
    const char *mnemonic;
    UnitClass unit;
    /**
     * Execution latency in cycles from issue to result availability,
     * excluding memory time for loads (a load's total latency is this
     * pipeline component plus the hierarchy's response time; we fold
     * the L1 access time into the hierarchy so this is 0 for loads).
     */
    unsigned latency;
    /** Bytes a load or store accesses; 0 for every other opcode. */
    unsigned accessBytes;
};

namespace detail
{
/** The opcode property table, indexed by Opcode; see instruction.cc. */
extern const OpInfo kOpTable[];

/** Panics on an out-of-range opcode; out of line, never taken. */
[[noreturn]] void badOpcode(std::size_t i);
} // namespace detail

/**
 * Looks up the static properties of @p op. Inline: the per-cycle issue
 * and regrouping paths query unit class and latency for every slot of
 * every group, so this must compile to a table index, not a call.
 */
inline const OpInfo &
opInfo(Opcode op)
{
    const auto i = static_cast<std::size_t>(op);
    if (i >= static_cast<std::size_t>(Opcode::kNumOpcodes))
        detail::badOpcode(i);
    return detail::kOpTable[i];
}

/** Printable register name ("r5", "f2", "p7"). */
std::string regName(RegId r);

/** Printable condition name ("eq", "ltu", ...). */
const char *condName(CmpCond c);

} // namespace isa
} // namespace ff

#endif // FF_ISA_ISA_HH
