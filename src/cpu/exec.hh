/**
 * @file
 * Pure functional evaluation of one ffvm instruction given its
 * operand values. Every execution engine (functional reference,
 * baseline pipe, A-pipe, B-pipe, run-ahead) funnels through this so
 * instruction semantics exist in exactly one place.
 */

#ifndef FF_CPU_EXEC_HH
#define FF_CPU_EXEC_HH

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/logging.hh"
#include "common/types.hh"
#include "isa/instruction.hh"

namespace ff
{
namespace cpu
{

/** Result of evaluating an instruction's non-memory semantics. */
struct EvalResult
{
    /** Did the qualifying predicate allow execution? */
    bool predTrue = false;

    bool writesDst = false;  ///< dstVal goes to the destination
    bool writesDst2 = false; ///< dst2Val goes to the second destination
    RegVal dstVal = 0;       ///< the result (a load's comes from memory)
    RegVal dst2Val = 0;      ///< a compare's complementary predicate

    /** Memory access request (loads leave dstVal for the caller). */
    bool isMemAccess = false;
    Addr addr = 0;       ///< the effective address, src1 + imm
    unsigned size = 0;   ///< bytes accessed
    RegVal storeVal = 0; ///< the value a store writes

    /** Branch outcome (taken iff predTrue for ffvm branches). */
    bool isBranch = false;
    bool taken = false; ///< the branch's direction
};

/** Bytes accessed by a memory opcode; panics on any other opcode. */
inline unsigned
memSize(isa::Opcode op)
{
    const unsigned bytes = isa::opInfo(op).accessBytes;
    ff_panic_if(bytes == 0, "memSize of non-memory opcode");
    return bytes;
}

/** Applies a load's width/sign treatment to raw little-endian bytes. */
inline RegVal
loadExtend(isa::Opcode op, std::uint64_t raw)
{
    if (op == isa::Opcode::kLd4) {
        // Sign-extend the low 32 bits.
        return static_cast<RegVal>(
            static_cast<std::int64_t>(static_cast<std::int32_t>(raw)));
    }
    return raw;
}

/** Returns the src2 operand value: the immediate or @p reg_val. */
inline RegVal
operandSrc2(const isa::Instruction &in, RegVal reg_val)
{
    return in.src2IsImm ? static_cast<RegVal>(in.imm) : reg_val;
}

namespace detail
{

/** The IEEE double whose bits @p v holds. */
inline double
asDouble(RegVal v)
{
    return std::bit_cast<double>(v);
}

/** The bits of @p d as a register value. */
inline RegVal
fromDouble(double d)
{
    return std::bit_cast<RegVal>(d);
}

/** CMP's condition @p c on @p a and @p b (signed but for kLtu). */
inline bool
intCompare(isa::CmpCond c, RegVal a, RegVal b)
{
    const auto sa = static_cast<std::int64_t>(a);
    const auto sb = static_cast<std::int64_t>(b);
    switch (c) {
      case isa::CmpCond::kEq: return a == b;
      case isa::CmpCond::kNe: return a != b;
      case isa::CmpCond::kLt: return sa < sb;
      case isa::CmpCond::kLe: return sa <= sb;
      case isa::CmpCond::kGt: return sa > sb;
      case isa::CmpCond::kGe: return sa >= sb;
      case isa::CmpCond::kLtu: return a < b;
    }
    return false;
}

/** FCMP's condition @p c on @p a and @p b (kLtu reads as kLt). */
inline bool
fpCompare(isa::CmpCond c, double a, double b)
{
    switch (c) {
      case isa::CmpCond::kEq: return a == b;
      case isa::CmpCond::kNe: return a != b;
      case isa::CmpCond::kLt: return a < b;
      case isa::CmpCond::kLe: return a <= b;
      case isa::CmpCond::kGt: return a > b;
      case isa::CmpCond::kGe: return a >= b;
      case isa::CmpCond::kLtu: return a < b;
    }
    return false;
}

} // namespace detail

/**
 * Evaluates @p in with operand values @p qpred / @p s1 / @p s2.
 * @p s2 must already be the immediate when src2IsImm is set (callers
 * use operandSrc2()). For loads the caller performs the memory read
 * and applies loadExtend(); evaluate() only computes the address.
 * Always inlined: every engine calls it for every executed slot, and
 * gcc at -O2 kept a plain inline function out of line in each engine,
 * so every slot paid a call and read its EvalResult back from memory.
 */
[[gnu::always_inline]] inline EvalResult
evaluate(const isa::Instruction &in, bool qpred, RegVal s1, RegVal s2)
{
    using detail::asDouble;
    using detail::fromDouble;
    EvalResult r;
    r.predTrue = qpred;
    if (in.isBranch()) {
        r.isBranch = true;
        r.taken = qpred;
        return r;
    }
    if (!qpred)
        return r; // nullified: no writes, no memory access

    switch (in.op) {
      case isa::Opcode::kNop:
      case isa::Opcode::kHalt:
        break;
      case isa::Opcode::kAdd:
        r.writesDst = true;
        r.dstVal = s1 + s2;
        break;
      case isa::Opcode::kSub:
        r.writesDst = true;
        r.dstVal = s1 - s2;
        break;
      case isa::Opcode::kAnd:
        r.writesDst = true;
        r.dstVal = s1 & s2;
        break;
      case isa::Opcode::kOr:
        r.writesDst = true;
        r.dstVal = s1 | s2;
        break;
      case isa::Opcode::kXor:
        r.writesDst = true;
        r.dstVal = s1 ^ s2;
        break;
      case isa::Opcode::kShl:
        r.writesDst = true;
        r.dstVal = s1 << (s2 & 63);
        break;
      case isa::Opcode::kShr:
        r.writesDst = true;
        r.dstVal = s1 >> (s2 & 63);
        break;
      case isa::Opcode::kSra:
        r.writesDst = true;
        r.dstVal = static_cast<RegVal>(static_cast<std::int64_t>(s1) >>
                                       (s2 & 63));
        break;
      case isa::Opcode::kMul:
        r.writesDst = true;
        r.dstVal = s1 * s2;
        break;
      case isa::Opcode::kMov:
        r.writesDst = true;
        r.dstVal = s1;
        break;
      case isa::Opcode::kMovi:
        r.writesDst = true;
        r.dstVal = static_cast<RegVal>(in.imm);
        break;
      case isa::Opcode::kCmp: {
        const bool t = detail::intCompare(in.cond, s1, s2);
        r.writesDst = true;
        r.dstVal = t ? 1 : 0;
        r.writesDst2 = true;
        r.dst2Val = t ? 0 : 1;
        break;
      }
      case isa::Opcode::kItof:
        r.writesDst = true;
        r.dstVal =
            fromDouble(static_cast<double>(static_cast<std::int64_t>(s1)));
        break;
      case isa::Opcode::kFtoi: {
        const double d = asDouble(s1);
        std::int64_t v;
        // Deterministic saturation instead of UB on out-of-range.
        if (std::isnan(d)) {
            v = 0;
        } else if (d >= 9.2233720368547758e18) {
            v = INT64_MAX;
        } else if (d <= -9.2233720368547758e18) {
            v = INT64_MIN;
        } else {
            v = static_cast<std::int64_t>(d);
        }
        r.writesDst = true;
        r.dstVal = static_cast<RegVal>(v);
        break;
      }
      case isa::Opcode::kFadd:
        r.writesDst = true;
        r.dstVal = fromDouble(asDouble(s1) + asDouble(s2));
        break;
      case isa::Opcode::kFsub:
        r.writesDst = true;
        r.dstVal = fromDouble(asDouble(s1) - asDouble(s2));
        break;
      case isa::Opcode::kFmul:
        r.writesDst = true;
        r.dstVal = fromDouble(asDouble(s1) * asDouble(s2));
        break;
      case isa::Opcode::kFdiv:
        r.writesDst = true;
        r.dstVal = fromDouble(asDouble(s1) / asDouble(s2));
        break;
      case isa::Opcode::kFcmp: {
        const bool t = detail::fpCompare(in.cond, asDouble(s1), asDouble(s2));
        r.writesDst = true;
        r.dstVal = t ? 1 : 0;
        r.writesDst2 = true;
        r.dst2Val = t ? 0 : 1;
        break;
      }
      case isa::Opcode::kLd4:
      case isa::Opcode::kLd8:
        r.isMemAccess = true;
        r.addr = s1 + static_cast<Addr>(in.imm);
        r.size = memSize(in.op);
        r.writesDst = true; // caller supplies dstVal from memory
        break;
      case isa::Opcode::kSt4:
      case isa::Opcode::kSt8:
        r.isMemAccess = true;
        r.addr = s1 + static_cast<Addr>(in.imm);
        r.size = memSize(in.op);
        r.storeVal = s2;
        break;
      case isa::Opcode::kBr:
      case isa::Opcode::kNumOpcodes:
        ff_panic("unreachable opcode in evaluate()");
    }
    return r;
}

} // namespace cpu
} // namespace ff

#endif // FF_CPU_EXEC_HH
