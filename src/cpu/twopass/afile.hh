/**
 * @file
 * The A-file of Section 3.3: the speculative register file of the
 * advance pipeline. Each register carries, beyond its value:
 *
 *  - V (valid): cleared in the destinations of deferred instructions;
 *    an A-pipe consumer of an invalid register must itself defer.
 *  - S (speculative): set by any A-pipe write (or deferral marking)
 *    that the B-pipe has not yet committed; bounds the repair set on
 *    a B-pipe flush.
 *  - DynID: the dynamic id of the last writer (or deferral marker),
 *    enabling the selective acceptance of B-pipe feedback updates.
 *  - readyAt / kind: in-flight timing of A-pipe-started producers
 *    (loads, multi-cycle ops); an operand that is valid but not yet
 *    ready at dispatch also defers its consumer.
 *
 * Storage is structure-of-arrays: values/writers/timing in dense
 * parallel arrays, V and S as packed bit words. Flush repair scans
 * the (~V | S) words and touches only dirty slots, and the
 * dispatch-path accessors are inline — they run for every operand of
 * every A-pipe slot every cycle.
 */

#ifndef FF_CPU_TWOPASS_AFILE_HH
#define FF_CPU_TWOPASS_AFILE_HH

#include <array>

#include "common/logging.hh"
#include "common/serialize.hh"
#include "cpu/regfile.hh"
#include "cpu/scoreboard.hh"
#include "cpu/state/bitset.hh"

namespace ff
{
namespace cpu
{

/** Speculative register file with V/S/DynID/timing sidecar state. */
class AFile
{
  public:
    /** A fresh file: every register zero, valid, committed and idle. */
    AFile() { reset(); }

    // Every query and update has a slot-keyed form, which the pipes
    // call with decoded slots, and a RegId form wrapping it. A
    // constant slot (isa::kZeroSlot, isa::kOneSlot) is always valid
    // and ready and never written.

    /** True if slot @p slot holds a usable (V=1) value. */
    bool valid(unsigned slot) const { return _valid.test(slot); }

    /** True if the register holds a usable (V=1) value. */
    bool valid(isa::RegId r) const { return valid(isa::sourceSlot(r)); }

    /** True if slot @p slot's value is available by cycle @p now. */
    bool
    readyBy(unsigned slot, Cycle now) const
    {
        return _readyAt[slot] <= now;
    }

    /** True if the value is available by cycle @p now. */
    bool
    readyBy(isa::RegId r, Cycle now) const
    {
        return readyBy(isa::sourceSlot(r), now);
    }

    /** Producer kind of an in-flight slot (stall taxonomy). */
    PendingKind kindOf(unsigned slot) const { return _kind[slot]; }

    /** Producer kind of an in-flight register (stall taxonomy). */
    PendingKind
    kindOf(isa::RegId r) const
    {
        return kindOf(isa::sourceSlot(r));
    }

    /** The cycle slot @p slot's value arrives (0 when idle). */
    Cycle readyAt(unsigned slot) const { return _readyAt[slot]; }

    /** The cycle @p r's value arrives (0 when idle). */
    Cycle readyAt(isa::RegId r) const { return readyAt(isa::sourceSlot(r)); }

    /** The value in slot @p slot. */
    RegVal read(unsigned slot) const { return _value[slot]; }

    /** The value of @p r; hardwired registers read their constant. */
    RegVal read(isa::RegId r) const { return read(isa::sourceSlot(r)); }

    /** Reads a predicate register as a boolean. */
    bool readPred(isa::RegId r) const { return read(r) != 0; }

    /** The last writer (or deferral marker) of @p r. */
    DynId
    lastWriter(isa::RegId r) const
    {
        return _lastWriter[isa::sourceSlot(r)];
    }

    /** An A-pipe instruction computed a result into slot @p slot. */
    void
    writeExecuted(unsigned slot, RegVal v, DynId id, Cycle ready_at,
                  PendingKind kind)
    {
        _value[slot] = slot >= isa::kFirstPredSlot ? (v != 0) : v;
        _valid.set(slot);
        _spec.set(slot);
        _lastWriter[slot] = id;
        _readyAt[slot] = ready_at;
        _kind[slot] = kind;
    }

    /** An A-pipe instruction computed a result. */
    void
    writeExecuted(isa::RegId r, RegVal v, DynId id, Cycle ready_at,
                  PendingKind kind)
    {
        if (!isa::hardwired(r))
            writeExecuted(destSlot(r), v, id, ready_at, kind);
    }

    /** An instruction deferring to the B-pipe marks slot @p slot. */
    void
    markDeferred(unsigned slot, DynId id)
    {
        _valid.clear(slot);
        _spec.set(slot);
        _lastWriter[slot] = id;
        _readyAt[slot] = 0;
        _kind[slot] = PendingKind::kNone;
    }

    /** An instruction deferring to the B-pipe marks its target. */
    void
    markDeferred(isa::RegId r, DynId id)
    {
        if (!isa::hardwired(r))
            markDeferred(destSlot(r), id);
    }

    /**
     * B-pipe feedback into slot @p slot: accepted only if the slot's
     * outstanding invalidation (or write) was by instruction @p id.
     * @return true if the update was applied
     */
    bool
    applyFeedback(unsigned slot, RegVal v, DynId id)
    {
        if (_lastWriter[slot] != id)
            return false; // a younger writer owns this register now
        _value[slot] = slot >= isa::kFirstPredSlot ? (v != 0) : v;
        _valid.set(slot);
        _spec.clear(slot); // the value is architecturally committed
        _readyAt[slot] = 0;
        _kind[slot] = PendingKind::kNone;
        return true;
    }

    /** B-pipe feedback into @p r (never into a hardwired register). */
    bool
    applyFeedback(isa::RegId r, RegVal v, DynId id)
    {
        return !isa::hardwired(r) && applyFeedback(destSlot(r), v, id);
    }

    /**
     * A pre-executed instruction retired in the B-pipe: clear the S
     * bit of slot @p slot if it still belongs to @p id.
     */
    void
    commitMatch(unsigned slot, DynId id)
    {
        if (_lastWriter[slot] == id)
            _spec.clear(slot);
    }

    /** commitMatch() of @p r; no-op on hardwired or unused operands. */
    void
    commitMatch(isa::RegId r, DynId id)
    {
        if (r.valid() && !isa::hardwired(r))
            commitMatch(destSlot(r), id);
    }

    /**
     * Flush repair: every register that is speculative or invalid is
     * restored from the architectural file @p bfile.
     * @return number of registers repaired (for stats)
     */
    unsigned repairFromArch(const RegFile &bfile);

    /**
     * Unconditionally adopts the architectural file @p bfile: every
     * slot value is copied, all entries become valid, committed and
     * idle. repairFromArch() cannot do this — a fresh A-file is
     * all-valid zeros, so its dirty scan would copy nothing. Used by
     * architectural warping, where the B-file itself was just
     * replaced wholesale.
     */
    void syncFromArch(const RegFile &bfile);

    /** Restores the fresh state of the constructor. */
    void reset();

    /** True if the entry is speculative (A-written, not committed). */
    bool
    speculative(isa::RegId r) const
    {
        return _spec.test(isa::sourceSlot(r));
    }

    /** Packed S words, for whole-file scans. */
    const PackedBits<kNumSlots> &specMask() const { return _spec; }

    /** Snapshot hooks: the full V/S/DynID/timing sidecar per register. */
    void save(serial::Writer &w) const;
    /** Exact inverse of save(). */
    void restore(serial::Reader &r);

  private:
    // Per slot, the two constant slots included: their entries stay
    // as reset() leaves them (valid, committed, idle, 0 and 1).
    std::array<RegVal, kNumSlots> _value;
    std::array<DynId, kNumSlots> _lastWriter;
    std::array<Cycle, kNumSlots> _readyAt;
    std::array<PendingKind, kNumSlots> _kind;
    PackedBits<kNumSlots> _valid;
    PackedBits<kNumSlots> _spec;
};

} // namespace cpu
} // namespace ff

#endif // FF_CPU_TWOPASS_AFILE_HH
