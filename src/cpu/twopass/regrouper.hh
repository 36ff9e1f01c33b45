/**
 * @file
 * B-pipe dispatch instruction regrouping (the "2Pre" configuration of
 * Section 3.1): adjacent issue groups at the head of the coupling
 * queue are fused into one retire window when pre-execution has
 * removed the dependences that forced the stop bit — regrouping, but
 * never reordering.
 *
 * extendRetireWindow is a template over the readiness predicate so
 * the B-pipe's per-entry check inlines into the scan; the old
 * std::function indirection showed up in tick-loop profiles.
 */

#ifndef FF_CPU_TWOPASS_REGROUPER_HH
#define FF_CPU_TWOPASS_REGROUPER_HH

#include <cstddef>

#include "common/logging.hh"
#include "cpu/regfile.hh"
#include "cpu/state/bitset.hh"
#include "cpu/twopass/coupling_queue.hh"
#include "isa/program.hh"

namespace ff
{
namespace cpu
{

/** The set of CQ-head entries retiring together this cycle. */
struct RetireWindow
{
    std::size_t entries = 0; ///< CQ entries [0, entries)
    unsigned groups = 0;     ///< original issue groups covered
};

/**
 * The head's full original group — the always-legal retire window.
 * Panics if the queue holds a torn group (the A-pipe dispatches
 * groups atomically, so that would be a simulator bug).
 */
RetireWindow headGroupWindow(const CouplingQueue &cq);

namespace detail
{

/** Mutable resource tally for a window under construction. */
struct WindowResources
{
    unsigned total = 0; ///< slots counted
    unsigned alu = 0;   ///< integer ALU slots
    unsigned mem = 0;   ///< load/store slots
    unsigned fp = 0;    ///< FP slots
    unsigned br = 0;    ///< branch slots

    /** Counts @p d in; false (and nothing counted) if it won't fit. */
    bool
    add(const isa::Decoded &d, const isa::GroupLimits &lim)
    {
        if (total + 1 > lim.issueWidth)
            return false;
        switch (d.unit) {
          case isa::UnitClass::kAlu:
            if (alu + 1 > lim.aluUnits)
                return false;
            ++alu;
            break;
          case isa::UnitClass::kMem:
            if (mem + 1 > lim.memUnits)
                return false;
            ++mem;
            break;
          case isa::UnitClass::kFp:
            if (fp + 1 > lim.fpUnits)
                return false;
            ++fp;
            break;
          case isa::UnitClass::kBranch:
            if (br + 1 > lim.branchUnits)
                return false;
            ++br;
            break;
        }
        ++total;
        return true;
    }
};

} // namespace detail

/**
 * Extends @p w by fusing subsequent fully-queued groups, never
 * reordering. A group fuses only while:
 *  - it is completely in the CQ and was enqueued before @p now (the
 *    A-pipe stays a cycle ahead),
 *  - combined resource usage fits @p limits,
 *  - no fused instruction sources a register written by a *deferred*
 *    instruction earlier in the window (those values materialize only
 *    when the deferred producer executes, so the stop bit is still
 *    load-bearing),
 *  - every entry of the group is itself ready to retire this cycle,
 *    as judged by @p entry_ready (called with the entry's logical CQ
 *    index; dangling results arrived, deferred operands ready) —
 *    fusing must never stall work that could have retired alone,
 *  - no *pre-executed load* fuses behind a deferred store (its
 *    merge-time ALAT check would run before the store's
 *    invalidations apply); deferred loads and non-loads may,
 *  - the window so far contains no unresolved (deferred) branch and
 *    no halt.
 *
 * The caller must have established that @p w itself is ready.
 */
template <typename EntryReady>
RetireWindow
extendRetireWindow(const CouplingQueue &cq, const isa::Program &prog,
                   const isa::GroupLimits &limits, Cycle now,
                   RetireWindow w, EntryReady &&entry_ready)
{
    // Window-so-far properties for the fusion rules. The deferred
    // writes are keyed by slot, the constant slots included, so a
    // decoded source tests its bit with no hardwired check.
    detail::WindowResources res;
    PackedBits<kNumSlots> deferred_writes;
    bool has_deferred_store = false;
    bool blocked = false;
    for (std::size_t k = 0; k < w.entries; ++k) {
        const isa::Decoded &d = prog.decoded(cq.idx(k));
        // The head group is taken as-is: it was a legal issue group,
        // so add() cannot overflow on it.
        res.add(d, limits);
        if (cq.deferred(k)) {
            if (d.isBranch()) {
                blocked = true;
                break;
            }
            if (d.isStore())
                has_deferred_store = true;
            for (unsigned j = 0; j < d.numDsts; ++j)
                deferred_writes.set(d.dst[j]);
        }
        if (d.isHalt()) {
            blocked = true;
            break;
        }
    }

    while (!blocked) {
        // Locate the next group [w.entries, g_end] fully in the CQ.
        std::size_t g_end = w.entries;
        bool complete = false;
        while (g_end < cq.size()) {
            if (cq.groupEnd(g_end)) {
                complete = true;
                break;
            }
            ++g_end;
        }
        if (!complete)
            break;
        if (cq.enqueuedAt(w.entries) >= now)
            break; // the A-pipe must stay a cycle ahead

        // Trial-fuse: all rules must pass before committing.
        detail::WindowResources trial = res;
        PackedBits<kNumSlots> trial_deferred = deferred_writes;
        bool trial_def_store = has_deferred_store;
        bool ok = true;
        bool trial_blocked = false;
        for (std::size_t k = w.entries; k <= g_end; ++k) {
            const isa::Decoded &d = prog.decoded(cq.idx(k));
            if (!trial.add(d, limits) || !entry_ready(k)) {
                ok = false;
                break;
            }
            // A pre-executed load's merge-time ALAT check must see
            // every older store invalidation: it cannot fuse behind
            // a deferred store.
            if (trial_def_store && cq.isLoad(k) && cq.preExecuted(k)) {
                ok = false;
                break;
            }
            if (trial_deferred.test(d.qp) || trial_deferred.test(d.src1) ||
                trial_deferred.test(d.src2)) {
                ok = false; // still dependent on a deferred result
                break;
            }
            if (cq.deferred(k)) {
                if (d.isBranch())
                    trial_blocked = true; // unresolved control
                if (d.isStore())
                    trial_def_store = true;
                for (unsigned j = 0; j < d.numDsts; ++j)
                    trial_deferred.set(d.dst[j]);
            }
            if (d.isHalt())
                trial_blocked = true;
        }
        if (!ok)
            break;
        res = trial;
        deferred_writes = trial_deferred;
        has_deferred_store = trial_def_store;
        blocked = trial_blocked;
        w.entries = g_end + 1;
        ++w.groups;
    }
    return w;
}

} // namespace cpu
} // namespace ff

#endif // FF_CPU_TWOPASS_REGROUPER_HH
