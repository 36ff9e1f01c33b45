/**
 * @file
 * The six-way cycle classification of Figure 6. Every simulated
 * cycle of the architectural pipe (the baseline's issue stage, or
 * the two-pass B-pipe) lands in exactly one class.
 */

#ifndef FF_CPU_CYCLE_CLASSES_HH
#define FF_CPU_CYCLE_CLASSES_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace ff
{
namespace cpu
{

/** Condition of the architectural pipe in one cycle. */
enum class CycleClass : std::uint8_t
{
    kUnstalled = 0,      ///< a group issued/retired
    kLoadStall = 1,      ///< blocked on a load result
    kNonLoadDepStall = 2,///< blocked on a multi-cycle non-load result
    kResourceStall = 3,  ///< blocked on MSHRs / buffers
    kFrontEndStall = 4,  ///< nothing available from fetch
    kApipeStall = 5,     ///< (two-pass) waiting for the A-pipe lead
};
inline constexpr unsigned kNumCycleClasses = 6;

const char *cycleClassName(CycleClass c);

/** Per-class cycle counters. */
struct CycleAccounting
{
    std::array<std::uint64_t, kNumCycleClasses> counts{};

    /** Charges @p cycles consecutive cycles to class @p c. */
    void
    record(CycleClass c, std::uint64_t cycles)
    {
        counts[static_cast<unsigned>(c)] += cycles;
    }

    std::uint64_t
    total() const
    {
        std::uint64_t t = 0;
        for (auto c : counts)
            t += c;
        return t;
    }

    std::uint64_t
    of(CycleClass c) const
    {
        return counts[static_cast<unsigned>(c)];
    }

    /** One-line render for reports. */
    std::string render() const;
};

} // namespace cpu
} // namespace ff

#endif // FF_CPU_CYCLE_CLASSES_HH
