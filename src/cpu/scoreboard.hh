/**
 * @file
 * Register scoreboard: tracks, per architectural register, when an
 * in-flight producer's value becomes usable and what kind of producer
 * it is (a load or a multi-cycle non-load). The stall taxonomy of
 * Figure 6 needs the kind to split "Load stall" from "Non-load dep.
 * stall".
 *
 * Layout is structure-of-arrays: dense ready-time and kind arrays
 * plus a packed busy bitset. The bitset makes two hot queries cheap:
 * quiescentBy() lets a whole group's dependence check short-circuit
 * when nothing is in flight, and forEachBusy() lets the run-ahead
 * checkpoint scan only the (few) pending slots instead of all
 * kNumRegSlots.
 */

#ifndef FF_CPU_SCOREBOARD_HH
#define FF_CPU_SCOREBOARD_HH

#include <array>

#include "common/logging.hh"
#include "common/serialize.hh"
#include "cpu/cycle_classes.hh"
#include "cpu/regfile.hh"
#include "cpu/state/bitset.hh"

namespace ff
{
namespace cpu
{

/** What kind of producer a pending register is waiting on. */
enum class PendingKind : std::uint8_t
{
    kNone,
    kLoad,
    kNonLoad,
};

/** Per-register ready-time tracker. */
class Scoreboard
{
  public:
    /** A scoreboard with nothing pending. */
    Scoreboard() { clear(); }

    /** Marks register slot @p slot busy until @p ready_at. */
    void
    setPending(unsigned slot, Cycle ready_at, PendingKind kind)
    {
        _readyAt[slot] = ready_at;
        _kind[slot] = kind;
        _busy.set(slot);
        if (ready_at > _maxReadyAt)
            _maxReadyAt = ready_at;
    }

    /** Marks @p r busy until @p ready_at (never a hardwired one). */
    void
    setPending(isa::RegId r, Cycle ready_at, PendingKind kind)
    {
        if (r.valid() && !isa::hardwired(r))
            setPending(destSlot(r), ready_at, kind);
    }

    /**
     * True if slot @p slot is usable at @p now. A constant slot always
     * is; so is a slot never marked pending, whose ready cycle is 0.
     */
    bool
    ready(unsigned slot, Cycle now) const
    {
        return _readyAt[slot] <= now;
    }

    /** True if @p r is usable at @p now. */
    bool
    ready(isa::RegId r, Cycle now) const
    {
        return ready(isa::sourceSlot(r), now);
    }

    /**
     * True when no register anywhere is pending past @p now — lets a
     * group dependence check skip per-operand queries entirely.
     */
    bool quiescentBy(Cycle now) const { return _maxReadyAt <= now; }

    /** The cycle slot @p slot becomes usable (0 if never pending). */
    Cycle readyAt(unsigned slot) const { return _readyAt[slot]; }

    /** The cycle @p r becomes usable (0 if never pending). */
    Cycle readyAt(isa::RegId r) const { return readyAt(isa::sourceSlot(r)); }

    /** Producer kind of slot @p slot's last pending write. */
    PendingKind kindOf(unsigned slot) const { return _kind[slot]; }

    /** Producer kind of @p r's last pending write. */
    PendingKind
    kindOf(isa::RegId r) const
    {
        return kindOf(isa::sourceSlot(r));
    }

    /**
     * Calls @p fn(slot) for every slot that has ever been marked
     * pending since the last clear(). A superset of the slots still
     * pending at any given cycle: the callee filters on readyAt().
     */
    template <typename Fn>
    void
    forEachBusy(Fn &&fn) const
    {
        _busy.forEachSet(fn);
    }

    /** Forgets every pending producer. */
    void
    clear()
    {
        _readyAt.fill(0);
        _kind.fill(PendingKind::kNone);
        _busy.clearAll();
        _maxReadyAt = 0;
    }

    /** Snapshot hooks: ready times and producer kinds per register. */
    void
    save(serial::Writer &w) const
    {
        for (unsigned slot = 0; slot < kNumRegSlots; ++slot)
            w.u64(_readyAt[slot]);
        for (unsigned slot = 0; slot < kNumRegSlots; ++slot)
            w.u8(static_cast<std::uint8_t>(_kind[slot]));
    }

    /** Exact inverse of save(). */
    void
    restore(serial::Reader &r)
    {
        _busy.clearAll();
        _maxReadyAt = 0;
        for (unsigned slot = 0; slot < kNumRegSlots; ++slot)
            _readyAt[slot] = r.u64();
        for (unsigned slot = 0; slot < kNumRegSlots; ++slot)
            _kind[slot] = static_cast<PendingKind>(r.u8());
        // Rebuild the derived busy view: any slot with a recorded
        // ready time was pending at some point.
        for (unsigned slot = 0; slot < kNumRegSlots; ++slot) {
            if (_readyAt[slot] != 0) {
                _busy.set(slot);
                if (_readyAt[slot] > _maxReadyAt)
                    _maxReadyAt = _readyAt[slot];
            }
        }
    }

  private:
    /** Per slot, constant slots included (always 0 and kNone). */
    std::array<Cycle, kNumSlots> _readyAt;
    std::array<PendingKind, kNumSlots> _kind;
    /**
     * Slots ever marked pending since clear(); bits are never lazily
     * dropped as producers complete, so this is a monotone superset
     * of "pending at cycle t" and readyAt stays authoritative.
     */
    PackedBits<kNumRegSlots> _busy;
    /** Max ready_at ever recorded; drives quiescentBy(). */
    Cycle _maxReadyAt;
};

/** Maps a producer kind to its Figure-6 stall class; kNone panics. */
inline CycleClass
stallClassForKind(PendingKind kind)
{
    switch (kind) {
      case PendingKind::kLoad:
        return CycleClass::kLoadStall;
      case PendingKind::kNonLoad:
        return CycleClass::kNonLoadDepStall;
      case PendingKind::kNone:
        break;
    }
    ff_panic("stall on a register with no pending producer");
}

/**
 * Maps the producer kind of a blocking slot on @p sb to its Figure-6
 * stall class. The caller must have established that @p blocking is
 * actually pending (not ready): a stall on a slot with no in-flight
 * producer is a scoreboarding bug and panics.
 */
inline CycleClass
stallClassFor(const Scoreboard &sb, unsigned blocking)
{
    return stallClassForKind(sb.kindOf(blocking));
}

} // namespace cpu
} // namespace ff

#endif // FF_CPU_SCOREBOARD_HH
