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
    AFile() { reset(); }

    /** True if the register holds a usable (V=1) value. */
    bool
    valid(isa::RegId r) const
    {
        const int slot = regSlot(r);
        ff_panic_if(slot < 0, "A-file access to unused operand");
        if (r.idx == 0)
            return true; // hardwired registers are always valid
        return _valid.test(slot);
    }

    /** True if the value is available by cycle @p now. */
    bool
    readyBy(isa::RegId r, Cycle now) const
    {
        const int slot = regSlot(r);
        ff_panic_if(slot < 0, "A-file access to unused operand");
        if (r.idx == 0)
            return true;
        return _readyAt[slot] <= now;
    }

    /** Producer kind of an in-flight register (stall taxonomy). */
    PendingKind
    kindOf(isa::RegId r) const
    {
        const int slot = regSlot(r);
        if (slot < 0 || r.idx == 0)
            return PendingKind::kNone;
        return _kind[slot];
    }

    Cycle
    readyAt(isa::RegId r) const
    {
        const int slot = regSlot(r);
        if (slot < 0 || r.idx == 0)
            return 0;
        return _readyAt[slot];
    }

    RegVal
    read(isa::RegId r) const
    {
        const int slot = regSlot(r);
        ff_panic_if(slot < 0, "A-file read of unused operand");
        if (r.idx == 0)
            return r.cls == isa::RegClass::kPred ? 1 : 0;
        return _value[slot];
    }

    bool readPred(isa::RegId r) const { return read(r) != 0; }

    DynId
    lastWriter(isa::RegId r) const
    {
        const int slot = regSlot(r);
        if (slot < 0 || r.idx == 0)
            return kInvalidDynId;
        return _lastWriter[slot];
    }

    /** An A-pipe instruction computed a result. */
    void
    writeExecuted(isa::RegId r, RegVal v, DynId id, Cycle ready_at,
                  PendingKind kind)
    {
        const int slot = regSlot(r);
        ff_panic_if(slot < 0, "A-file write to unused operand");
        if (r.idx == 0)
            return;
        if (r.cls == isa::RegClass::kPred)
            v = v ? 1 : 0;
        _value[slot] = v;
        _valid.set(slot);
        _spec.set(slot);
        _lastWriter[slot] = id;
        _readyAt[slot] = ready_at;
        _kind[slot] = kind;
    }

    /** An instruction deferring to the B-pipe marks its target. */
    void
    markDeferred(isa::RegId r, DynId id)
    {
        const int slot = regSlot(r);
        ff_panic_if(slot < 0, "A-file deferral mark on unused operand");
        if (r.idx == 0)
            return;
        _valid.clear(slot);
        _spec.set(slot);
        _lastWriter[slot] = id;
        _readyAt[slot] = 0;
        _kind[slot] = PendingKind::kNone;
    }

    /**
     * B-pipe feedback: accepted only if the register's outstanding
     * invalidation (or write) was by instruction @p id.
     * @return true if the update was applied
     */
    bool
    applyFeedback(isa::RegId r, RegVal v, DynId id)
    {
        const int slot = regSlot(r);
        ff_panic_if(slot < 0, "A-file feedback to unused operand");
        if (r.idx == 0)
            return false;
        if (_lastWriter[slot] != id)
            return false; // a younger writer owns this register now
        if (r.cls == isa::RegClass::kPred)
            v = v ? 1 : 0;
        _value[slot] = v;
        _valid.set(slot);
        _spec.clear(slot); // the value is architecturally committed
        _readyAt[slot] = 0;
        _kind[slot] = PendingKind::kNone;
        return true;
    }

    /**
     * A pre-executed instruction retired in the B-pipe: clear the S
     * bit if this register still belongs to it.
     */
    void
    commitMatch(isa::RegId r, DynId id)
    {
        const int slot = regSlot(r);
        if (slot < 0 || r.idx == 0)
            return;
        if (_lastWriter[slot] == id)
            _spec.clear(slot);
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

    void reset();

    /** True if the entry is speculative (A-written, not committed). */
    bool
    speculative(isa::RegId r) const
    {
        const int slot = regSlot(r);
        if (slot < 0 || r.idx == 0)
            return false;
        return _spec.test(slot);
    }

    /** Packed S words, for whole-file scans. */
    const PackedBits<kNumRegSlots> &specMask() const { return _spec; }

    /** Snapshot hooks: the full V/S/DynID/timing sidecar per slot. */
    void save(serial::Writer &w) const;
    void restore(serial::Reader &r);

  private:
    std::array<RegVal, kNumRegSlots> _value;
    std::array<DynId, kNumRegSlots> _lastWriter;
    std::array<Cycle, kNumRegSlots> _readyAt;
    std::array<PendingKind, kNumRegSlots> _kind;
    PackedBits<kNumRegSlots> _valid;
    PackedBits<kNumRegSlots> _spec;
};

} // namespace cpu
} // namespace ff

#endif // FF_CPU_TWOPASS_AFILE_HH
