#include "analysis/range.hh"

#include <algorithm>

#include "analysis/dataflow.hh"
#include "common/logging.hh"
#include "cpu/exec.hh"
#include "cpu/regfile.hh"

namespace ff
{
namespace analysis
{

using cpu::kNumRegSlots;
using cpu::regSlot;
using isa::Instruction;
using isa::Opcode;
using isa::RegClass;
using isa::RegId;

namespace
{

constexpr std::uint64_t kMax = ~std::uint64_t{0};
constexpr std::uint8_t kMaxAlign = 63; ///< mod 2^63 is "exact enough"
constexpr std::uint8_t kWidenAfter = 3; ///< interval growths before widening

inline std::uint64_t
alignMask(std::uint8_t k)
{
    return (std::uint64_t{1} << k) - 1; // k <= 63 by construction
}

inline std::uint8_t
trailingZeros(std::uint64_t v)
{
    if (v == 0)
        return kMaxAlign;
    std::uint8_t n = 0;
    while (!(v & 1)) {
        v >>= 1;
        ++n;
    }
    return n;
}

Range
addRanges(const Range &a, const Range &b)
{
    Range r = Range::top();
    // Interval: sound only when neither bound wraps.
    if (a.hi <= kMax - b.hi) {
        r.lo = a.lo + b.lo;
        r.hi = a.hi + b.hi;
    }
    // Congruence is exact under wraparound.
    r.alignLog2 = std::min(a.alignLog2, b.alignLog2);
    r.rem = (a.rem + b.rem) & alignMask(r.alignLog2);
    return r;
}

Range
subRanges(const Range &a, const Range &b)
{
    Range r = Range::top();
    if (a.lo >= b.hi) { // no wrap on either bound
        r.lo = a.lo - b.hi;
        r.hi = a.hi - b.lo;
    }
    r.alignLog2 = std::min(a.alignLog2, b.alignLog2);
    r.rem = (a.rem - b.rem) & alignMask(r.alignLog2);
    return r;
}

Range
andRanges(const Range &a, const Range &b)
{
    Range r = Range::top();
    r.hi = std::min(a.hi, b.hi); // x & y <= min(x, y)
    // Low bits: (x & y) mod 2^k == (x mod 2^k) & (y mod 2^k).
    r.alignLog2 = std::min(a.alignLog2, b.alignLog2);
    r.rem = (a.rem & b.rem) & alignMask(r.alignLog2);
    // Masking with a constant whose low bits are clear forces
    // alignment regardless of the other operand.
    if (b.isConstant()) {
        const std::uint8_t z = trailingZeros(b.lo);
        if (z > r.alignLog2) {
            r.alignLog2 = z;
            r.rem = 0;
        }
    }
    return r;
}

Range
orRanges(const Range &a, const Range &b)
{
    Range r = Range::top();
    r.lo = std::max(a.lo, b.lo); // x | y >= max(x, y)
    if (a.hi <= kMax - b.hi)
        r.hi = a.hi + b.hi; // x | y <= x + y
    r.alignLog2 = std::min(a.alignLog2, b.alignLog2);
    r.rem = (a.rem | b.rem) & alignMask(r.alignLog2);
    return r;
}

Range
xorRanges(const Range &a, const Range &b)
{
    Range r = Range::top();
    r.alignLog2 = std::min(a.alignLog2, b.alignLog2);
    r.rem = (a.rem ^ b.rem) & alignMask(r.alignLog2);
    return r;
}

Range
shlRanges(const Range &a, const Range &b)
{
    Range r = Range::top();
    if (!b.isConstant())
        return r;
    const unsigned s = static_cast<unsigned>(b.lo & 63);
    if (s == 0)
        return a;
    if (a.hi <= (kMax >> s)) {
        r.lo = a.lo << s;
        r.hi = a.hi << s;
    }
    r.alignLog2 = static_cast<std::uint8_t>(
        std::min<unsigned>(kMaxAlign, a.alignLog2 + s));
    r.rem = (a.rem << s) & alignMask(r.alignLog2);
    return r;
}

Range
shrRanges(const Range &a, const Range &b)
{
    Range r = Range::top();
    if (!b.isConstant())
        return r;
    const unsigned s = static_cast<unsigned>(b.lo & 63);
    r.lo = a.lo >> s;
    r.hi = a.hi >> s;
    return r;
}

Range
mulRanges(const Range &a, const Range &b)
{
    Range r = Range::top();
    if (a.hi == 0 || b.hi <= kMax / a.hi) {
        r.lo = a.lo * b.lo;
        r.hi = a.hi * b.hi;
    }
    // (ra + m*2^ka)(rb + n*2^kb) ≡ ra*rb (mod 2^min(ka, kb)); when
    // both remainders are zero the product gains the sum of factors.
    if (a.rem == 0 && b.rem == 0) {
        r.alignLog2 = static_cast<std::uint8_t>(std::min<unsigned>(
            kMaxAlign, a.alignLog2 + b.alignLog2));
        r.rem = 0;
    } else {
        r.alignLog2 = std::min(a.alignLog2, b.alignLog2);
        r.rem = (a.rem * b.rem) & alignMask(r.alignLog2);
    }
    return r;
}

/** Reads a register out of @p state (hardwired zeros included). */
Range
readReg(const RangeState &state, RegId r)
{
    if (r.idx == 0 && r.cls != RegClass::kNone)
        return Range::constant(r.cls == RegClass::kPred ? 1 : 0);
    const int slot = regSlot(r);
    if (slot < 0)
        return Range::top();
    return state.regs[static_cast<std::size_t>(slot)];
}

/** Integer ALU result range, or top for unmodeled opcodes. */
Range
evalInt(const Instruction &in, const RangeState &state)
{
    using Rule = Range (*)(const Range &, const Range &);
    Rule rule = nullptr;
    switch (in.op) {
      case Opcode::kMovi:
        return Range::constant(static_cast<std::uint64_t>(in.imm));
      case Opcode::kMov: return readReg(state, in.src1);
      case Opcode::kAdd: rule = addRanges; break;
      case Opcode::kSub: rule = subRanges; break;
      case Opcode::kAnd: rule = andRanges; break;
      case Opcode::kOr:  rule = orRanges; break;
      case Opcode::kXor: rule = xorRanges; break;
      case Opcode::kShl: rule = shlRanges; break;
      case Opcode::kShr: rule = shrRanges; break;
      case Opcode::kSra: break; // exact operands only
      case Opcode::kMul: rule = mulRanges; break;
      default:
        return Range::top();
    }
    const Range a = readReg(state, in.src1);
    const Range b =
        in.src2IsImm
            ? Range::constant(static_cast<std::uint64_t>(in.imm))
            : readReg(state, in.src2);
    // Exact operands give the exact result, computed by the
    // simulator's own integer semantics.
    if (a.isConstant() && b.isConstant())
        return Range::constant(
            cpu::evaluate(in, true, a.lo, b.lo).dstVal);
    return rule != nullptr ? rule(a, b) : Range::top();
}

} // namespace

Range
Range::constant(std::uint64_t c)
{
    Range r;
    r.lo = r.hi = c;
    r.alignLog2 = kMaxAlign;
    r.rem = c & alignMask(kMaxAlign);
    return r;
}

bool
Range::provablyMisaligned(std::uint64_t align) const
{
    if (align <= 1)
        return false;
    if (isConstant())
        return (lo % align) != 0;
    const std::uint8_t need = trailingZeros(align);
    return alignLog2 >= need && (rem % align) != 0;
}

bool
Range::provablyAligned(std::uint64_t align) const
{
    if (align <= 1)
        return true;
    if (isConstant())
        return (lo % align) == 0;
    const std::uint8_t need = trailingZeros(align);
    return alignLog2 >= need && (rem % align) == 0;
}

bool
Range::joinInto(const Range &from)
{
    bool changed = false;

    std::uint64_t nlo = std::min(lo, from.lo);
    std::uint64_t nhi = std::max(hi, from.hi);
    if (nlo != lo || nhi != hi) {
        if (++grows >= kWidenAfter) {
            // Widen: jump straight to the extremes that moved so a
            // loop-carried interval converges in O(1) more passes.
            if (nlo != lo)
                nlo = 0;
            if (nhi != hi)
                nhi = kMax;
        }
        lo = nlo;
        hi = nhi;
        changed = true;
    }

    // Common congruence: the largest k <= min(ka, kb) on which the
    // two remainders agree.
    std::uint8_t k = std::min(alignLog2, from.alignLog2);
    if (((rem ^ from.rem) & alignMask(k)) != 0) {
        const std::uint8_t diff = trailingZeros(rem ^ from.rem);
        k = std::min(k, diff);
    }
    const std::uint64_t nrem = rem & alignMask(k);
    if (k != alignLog2 || nrem != rem) {
        alignLog2 = k;
        rem = nrem;
        changed = true;
    }
    return changed;
}

void
RangeProp::transfer(const Instruction &in, RangeState *state)
{
    std::array<RegId, 2> dsts;
    const unsigned nd = in.destinations(dsts);
    if (nd == 0)
        return;

    Range result = Range::top();
    if (nd == 1 && dsts[0].cls == RegClass::kInt && !in.isLoad())
        result = evalInt(in, *state);

    const bool conditional =
        !(in.qpred.cls == RegClass::kPred && in.qpred.idx == 0);
    for (unsigned d = 0; d < nd; ++d) {
        const int slot = regSlot(dsts[d]);
        if (slot < 0 || dsts[d].idx == 0)
            continue; // hardwired: writes are dropped
        Range next = (d == 0) ? result : Range::top();
        if (dsts[d].cls == RegClass::kPred) {
            // Predicates only ever hold 0 or 1.
            next.lo = 0;
            next.hi = std::min<std::uint64_t>(next.hi, 1);
        }
        if (conditional)
            next.joinInto(
                (*state).regs[static_cast<std::size_t>(slot)]);
        (*state).regs[static_cast<std::size_t>(slot)] = next;
    }
}

/** Forward must-analysis policy with the seeded-flag wrapper. */
struct RangePolicy
{
    using State = RangeState;
    static constexpr Direction kDirection = Direction::kForward;

    State initialState() const { return {}; } // unreached: identity

    State
    boundaryState() const
    {
        // Architectural reset: every register is exactly zero.
        State s;
        s.seeded = true;
        s.regs.assign(kNumRegSlots, Range::constant(0));
        return s;
    }

    bool
    meetInto(State &into, const State &from) const
    {
        if (!from.seeded)
            return false;
        if (!into.seeded) {
            into = from;
            return true;
        }
        bool changed = false;
        for (std::size_t s = 0; s < into.regs.size(); ++s)
            changed |= into.regs[s].joinInto(from.regs[s]);
        return changed;
    }

    void
    transferBlock(const Cfg &cfg, std::size_t b, State &state) const
    {
        if (!state.seeded)
            return; // unreachable blocks propagate nothing
        const CfgBlock &blk = cfg.blocks()[b];
        for (InstIdx i = blk.begin; i < blk.end; ++i)
            RangeProp::transfer(cfg.program().inst(i), &state);
    }
};

RangeProp::RangeProp(const Cfg &cfg) : _cfg(cfg)
{
    const RangePolicy policy;
    const DataflowSolver<RangePolicy> solver(_cfg, policy);
    _blockIn.resize(_cfg.numBlocks());
    for (std::size_t b = 0; b < _cfg.numBlocks(); ++b)
        _blockIn[b] = solver.in(b);
}

Range
RangeProp::rangeBefore(InstIdx i, RegId reg) const
{
    if (reg.idx == 0 && reg.cls != RegClass::kNone)
        return Range::constant(reg.cls == RegClass::kPred ? 1 : 0);
    const int slot = regSlot(reg);
    if (slot < 0)
        return Range::top();
    const std::size_t b = _cfg.blockIndexOf(i);
    if (!_blockIn[b].seeded)
        return Range::top(); // unreachable: claim nothing
    RangeState state = _blockIn[b];
    for (InstIdx j = _cfg.blocks()[b].begin; j < i; ++j)
        transfer(_cfg.program().inst(j), &state);
    return state.regs[static_cast<std::size_t>(slot)];
}

Range
RangeProp::effectiveAddress(InstIdx i) const
{
    const Instruction &in = _cfg.program().inst(i);
    if (!in.isMem())
        return Range::top();
    const Range base = rangeBefore(i, in.src1);
    if (base.isConstant())
        return Range::constant(cpu::evaluate(in, true, base.lo, 0).addr);
    return addRanges(
        base, Range::constant(static_cast<std::uint64_t>(in.imm)));
}

} // namespace analysis
} // namespace ff
