/**
 * @file
 * ProfileObserver: per-static-instruction cycle and event accounting
 * as a CoreObserver client. It attributes every simulated cycle to a
 * static instruction with a retire-centric charging rule: stall
 * cycles accrue in a pending pool and are charged to the leader of
 * the next issue group to retire (the group that was blocked), while
 * unstalled cycles charge to the group that retired that cycle.
 * Defer and flush events carry their static index directly. Joined
 * with the srcLine provenance the assembler threads through every
 * instruction, the result is the Figure-6 decomposition at
 * instruction granularity — which static loads the stall cycles
 * belong to, and which deferrals won them back.
 */

#ifndef FF_CPU_CORE_PROFILE_OBSERVER_HH
#define FF_CPU_CORE_PROFILE_OBSERVER_HH

#include <array>
#include <vector>

#include "cpu/core/observer.hh"
#include "isa/program.hh"

namespace ff
{
namespace cpu
{

/** Per-static-instruction profile accumulators. */
struct InstProfile
{
    /** Cycles charged to this leader, by Figure-6 class. */
    std::array<std::uint64_t, kNumCycleClasses> cycles{};
    /** Deferrals of this instruction, by reason. */
    std::array<std::uint64_t, kNumDeferReasons> defers{};
    /** Flushes refetching at this leader, by kind. */
    std::array<std::uint64_t, kNumFlushKinds> flushes{};
    std::uint64_t retires = 0; ///< groups retired with this leader
    std::uint64_t slots = 0;   ///< slots retired in those groups

    /** Total cycles charged (all classes). */
    std::uint64_t totalCycles() const;
    /** Charged cycles minus the unstalled class. */
    std::uint64_t stallCycles() const;
    /** Total deferrals (all reasons). */
    std::uint64_t totalDefers() const;
};

/** Attributes observer events to static instruction indices. */
class ProfileObserver final : public CoreObserver
{
  public:
    /** @p prog must outlive the observer (indices size the table). */
    explicit ProfileObserver(const isa::Program &prog);

    void onCycle(Cycle now, CycleClass cls) override;
    void onGroupRetire(Cycle now, InstIdx leader,
                       unsigned slots) override;
    void onDefer(Cycle now, InstIdx idx, DynId id,
                 DeferReason reason) override;
    void onFlush(Cycle now, FlushKind kind, InstIdx target) override;

    const isa::Program &program() const { return _prog; }

    /** Profile row of static instruction @p i. */
    const InstProfile &at(InstIdx i) const { return _table.at(i); }
    const std::vector<InstProfile> &table() const { return _table; }

    /**
     * Cycles still pending at the end of the run (accrued after the
     * final retirement), by class; kept so sum(profile) + unattributed
     * equals the run's total cycle count exactly.
     */
    const std::array<std::uint64_t, kNumCycleClasses> &
    unattributed() const
    {
        return _pending;
    }

    /**
     * Static indices with any charged activity, ordered by descending
     * stall cycles (ties by index). @p k bounds the result; 0 means
     * all active rows.
     */
    std::vector<InstIdx> topByStallCycles(unsigned k = 0) const;

  private:
    const isa::Program &_prog;
    std::vector<InstProfile> _table;
    /** Stall cycles accrued since the last retirement. */
    std::array<std::uint64_t, kNumCycleClasses> _pending{};
    /** Leader of the most recent retirement (charges its own
     *  unstalled cycle, which the hook order delivers after the
     *  retire event). */
    InstIdx _lastLeader = 0;
};

} // namespace cpu
} // namespace ff

#endif // FF_CPU_CORE_PROFILE_OBSERVER_HH
