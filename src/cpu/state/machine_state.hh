/**
 * @file
 * MachineState: the structure-of-arrays home of every per-cycle hot
 * structure a core model mutates. One object, owned by CpuModel,
 * aggregates:
 *
 *  - the architectural register file (the two-pass B-file) and its
 *    scoreboard (the two-pass B-pipe scoreboard), both dense arrays
 *    with packed busy/dirty bit words;
 *  - the two-pass A-file (values + packed V/S flags) and the
 *    coupling queue (a field-per-array ring);
 *  - the shared two-pass pipe state that used to live in the ad-hoc
 *    TwoPassShared block: the dynamic-id allocator, the A-pipe halt
 *    latch, the conflict-retry set, and the observer attachment;
 *  - the run-ahead checkpoint block: shadow register file, shadow
 *    scoreboard, and the INV mark bits as one packed word array.
 *
 * Models touch only the members they model (the baseline never looks
 * at the A-file), but ownership in one flat object keeps the hot
 * state dense, makes observers read arrays instead of objects, and
 * gives tests a single hand-buildable fixture.
 */

#ifndef FF_CPU_STATE_MACHINE_STATE_HH
#define FF_CPU_STATE_MACHINE_STATE_HH

#include <algorithm>
#include <vector>

#include "common/types.hh"
#include "cpu/config.hh"
#include "cpu/core/observer.hh"
#include "cpu/regfile.hh"
#include "cpu/scoreboard.hh"
#include "cpu/state/bitset.hh"
#include "cpu/twopass/afile.hh"
#include "cpu/twopass/coupling_queue.hh"

namespace ff
{
namespace cpu
{

/** Dense aggregate of the per-cycle mutable machine state. */
struct MachineState
{
    explicit MachineState(const CoreConfig &cfg)
        : cq(cfg.couplingQueueSize)
    {
    }

    // ---- architectural state (every model) --------------------------
    RegFile regs;  ///< architectural register file (two-pass B-file)
    Scoreboard sb; ///< in-flight producers (two-pass B-pipe scoreboard)

    // ---- two-pass speculative state ---------------------------------
    AFile afile;      ///< A-pipe speculative register file
    CouplingQueue cq; ///< A-to-B instruction FIFO with CRS payload

    // ---- shared two-pass pipe state (was TwoPassShared) -------------
    DynId nextId = 1;     ///< dynamic-id allocator (A-pipe dispatch)
    bool aHalted = false; ///< A-pipe saw HALT dispatch; flushes clear

    /** Observer the model and its stage units notify (setObserver). */
    CoreObserver *observer = nullptr;

    /**
     * Forward-progress guarantee: static loads whose ALAT entries
     * conflicted since the last successful retirement are deferred
     * (executed architecturally in the B-pipe) on re-dispatch. The
     * set grows by one load per flush and clears once the stuck
     * window retires, so a pathological ALAT (or persistent aliasing
     * pattern) cannot livelock the flush loop. Kept as a sorted
     * vector: it holds at most a handful of static indices and is
     * probed once per dispatched load.
     */
    bool
    conflictRetryContains(InstIdx idx) const
    {
        return std::binary_search(_conflictRetry.begin(),
                                  _conflictRetry.end(), idx);
    }

    void
    conflictRetryInsert(InstIdx idx)
    {
        const auto it = std::lower_bound(_conflictRetry.begin(),
                                         _conflictRetry.end(), idx);
        if (it == _conflictRetry.end() || *it != idx)
            _conflictRetry.insert(it, idx);
    }

    void conflictRetryClear() { _conflictRetry.clear(); }
    const std::vector<InstIdx> &conflictRetry() const
    {
        return _conflictRetry;
    }

    // ---- run-ahead checkpoint block ---------------------------------
    RegFile raRegs;   ///< checkpointed registers for run-ahead episodes
    Scoreboard raSb;  ///< run-ahead-local scoreboard
    PackedBits<kNumSlots> raInv; ///< INV (poisoned) result marks

    /**
     * Re-syncs the run-ahead shadow register file with the
     * architectural file: copies exactly the slots whose values may
     * differ — those written architecturally since the last sync plus
     * those the previous run-ahead episode scribbled over — as flagged
     * by the two dirty masks, then clears both masks. Replaces the
     * full kNumRegSlots copy at every episode entry.
     */
    void checkpointRegsToRa();

  private:
    std::vector<InstIdx> _conflictRetry;
};

} // namespace cpu
} // namespace ff

#endif // FF_CPU_STATE_MACHINE_STATE_HH
