/**
 * @file
 * Integer value-range propagation over the dataflow engine: a forward
 * must-analysis generalizing constant propagation. Each register
 * carries an unsigned interval [lo, hi] plus a power-of-two congruence
 * (value ≡ rem mod 2^alignLog2), so the verifier can prove alignment
 * and nullness facts about effective addresses that are *not*
 * compile-time constants — e.g. a base built as `x << 3 | 4` is
 * provably 4 mod 8 whatever x is. A range with lo == hi is an exact
 * constant: an integer op on two of them, and an address off a
 * constant base, fold to the exact value through cpu::evaluate, so
 * wraparound never loses a constant and the analysis computes every
 * constant the way the simulator does.
 *
 * Congruence arithmetic is exact under 64-bit wraparound, so it
 * survives operations whose interval must fall to top on possible
 * overflow. Termination: the congruence lattice has height <= 64 per
 * slot, and the join widens an interval to the extremes after a small
 * number of growths, so each cell takes finitely many values.
 */

#ifndef FF_ANALYSIS_RANGE_HH
#define FF_ANALYSIS_RANGE_HH

#include <cstdint>
#include <vector>

#include "analysis/cfg.hh"
#include "isa/program.hh"

namespace ff
{
namespace analysis
{

/** One lattice cell: interval plus power-of-two congruence. */
struct Range
{
    std::uint64_t lo = 0;                   ///< value >= lo
    std::uint64_t hi = ~std::uint64_t{0};   ///< value <= hi
    std::uint64_t rem = 0;  ///< value ≡ rem (mod 2^alignLog2)
    std::uint8_t alignLog2 = 0;
    std::uint8_t grows = 0; ///< join growth count, drives widening

    static Range top() { return {}; }
    static Range constant(std::uint64_t c);

    bool isConstant() const { return lo == hi; }
    bool provablyZero() const { return lo == 0 && hi == 0; }

    /** True if the value can never be zero on any path. */
    bool
    provablyNonZero() const
    {
        return lo > 0 || rem != 0;
    }

    /** True if value % align is provably nonzero (align a power of
     *  two): a memory access at this address must fault or straddle. */
    bool provablyMisaligned(std::uint64_t align) const;

    /** True if value % align is provably zero (align a power of two). */
    bool provablyAligned(std::uint64_t align) const;

    /**
     * Widening join: grows this cell to cover @p from; after a few
     * interval growths the bounds jump to the extremes so loops
     * converge. Returns true if this cell changed. grows is carried
     * metadata and excluded from the change test.
     */
    bool joinInto(const Range &from);

    bool
    operator==(const Range &o) const
    {
        return lo == o.lo && hi == o.hi && rem == o.rem &&
               alignLog2 == o.alignLog2;
    }
};

/** Range state for every dense register slot at one point. */
struct RangeState
{
    bool seeded = false; ///< false: no path reaches (meet identity)
    std::vector<Range> regs;
};

/** Per-program value-range propagation result. */
class RangeProp
{
  public:
    /** Runs the dataflow to a fixpoint over @p cfg. */
    explicit RangeProp(const Cfg &cfg);

    /** The value range of @p reg immediately before instruction
     *  @p i executes; top() for unreachable code or unknown values. */
    Range rangeBefore(InstIdx i, isa::RegId reg) const;

    /** The range of memory instruction @p i's effective address
     *  ([src1 + imm]), exact when the base is a constant; top() if
     *  @p i is not a memory operation. */
    Range effectiveAddress(InstIdx i) const;

    /** Applies instruction @p in to @p state (exposed for tests). */
    static void transfer(const isa::Instruction &in, RangeState *state);

  private:
    const Cfg &_cfg;
    std::vector<RangeState> _blockIn; ///< per-block entry state
};

} // namespace analysis
} // namespace ff

#endif // FF_ANALYSIS_RANGE_HH
