/**
 * @file
 * Architectural register state: 64 integer, 64 FP and 64 predicate
 * registers in one dense array (FP values stored as raw IEEE-754
 * bits), followed by the two constant source slots of isa::kZeroSlot.
 * Register zero of each class is hardwired (r0 = 0, f0 = +0.0,
 * p0 = true): reads return the constant and writes are rejected by
 * the program validator. Every access has a slot-keyed form, which
 * the timed stages call with decoded slots, and a RegId form for
 * tests, observers and cold paths, which wraps it.
 *
 * The file carries a dirty mask (one bit per slot, set on every
 * write) so checkpoint/shadow consumers — the run-ahead register
 * checkpoint in MachineState — can re-sync by copying only the words
 * that changed since the last sync instead of all kNumRegSlots values.
 */

#ifndef FF_CPU_REGFILE_HH
#define FF_CPU_REGFILE_HH

#include <array>
#include <cstdint>

#include "common/logging.hh"
#include "common/serialize.hh"
#include "common/types.hh"
#include "cpu/state/bitset.hh"
#include "isa/isa.hh"

namespace ff
{
namespace cpu
{

// The slot map lives with the ISA; the register state below is keyed
// by it.
using isa::kNumRegSlots;
using isa::kNumSlots;
using isa::regSlot;
using isa::slotReg;

/**
 * The register slot a write to @p r lands in; panics on an unused
 * operand. Callers drop writes to hardwired registers first.
 */
inline unsigned
destSlot(isa::RegId r)
{
    const int slot = regSlot(r);
    ff_panic_if(slot < 0, "write of unused operand slot");
    return static_cast<unsigned>(slot);
}

/** Architectural (or speculative) register value state. */
class RegFile
{
  public:
    /** A file with every register zero (p0 reads 1). */
    RegFile() { reset(); }

    /**
     * Reads slot @p slot: a register slot or a constant slot
     * (isa::kZeroSlot, isa::kOneSlot). The timed stages read decoded
     * source slots through this, with no test.
     */
    RegVal read(unsigned slot) const { return _vals[slot]; }

    /** Reads a register; hardwired zeros (and p0 = 1) included. */
    RegVal read(isa::RegId r) const { return read(isa::sourceSlot(r)); }

    /** Reads a predicate register as a boolean. */
    bool readPred(isa::RegId r) const { return read(r) != 0; }

    /**
     * Writes register slot @p slot (never a constant slot); a
     * predicate slot stores 0 or 1.
     */
    void
    write(unsigned slot, RegVal v)
    {
        _vals[slot] = slot >= isa::kFirstPredSlot ? (v != 0) : v;
        _dirty.set(slot);
    }

    /** Writes a register. Writes to index-0 registers are ignored. */
    void
    write(isa::RegId r, RegVal v)
    {
        if (!isa::hardwired(r))
            write(destSlot(r), v);
    }

    /** Zeroes every register and marks every slot dirty. */
    void
    reset()
    {
        _vals.fill(0);
        _vals[isa::kOneSlot] = 1;
        // Conservative: a shadow copy synced before reset() differs
        // everywhere afterwards.
        _dirty.setAll();
    }

    /**
     * Slots written since the last clearDirty(). A set bit means the
     * slot MAY have changed; clean bits are guaranteed untouched.
     */
    const PackedBits<kNumRegSlots> &dirtyMask() const { return _dirty; }
    /** Forgets every write so far (a shadow copy was just synced). */
    void clearDirty() { _dirty.clearAll(); }

    /** FNV-1a digest of every register slot, for equivalence tests. */
    std::uint64_t fingerprint() const;

    /** Snapshot hooks: the register slots, in slot order. */
    void
    save(serial::Writer &w) const
    {
        for (unsigned slot = 0; slot < kNumRegSlots; ++slot)
            w.u64(_vals[slot]);
    }

    /** Exact inverse of save(). */
    void
    restore(serial::Reader &r)
    {
        for (unsigned slot = 0; slot < kNumRegSlots; ++slot)
            _vals[slot] = r.u64();
        _dirty.setAll();
    }

  private:
    /** The register slots, then the two constant slots. */
    std::array<RegVal, kNumSlots> _vals;
    PackedBits<kNumRegSlots> _dirty;
};

} // namespace cpu
} // namespace ff

#endif // FF_CPU_REGFILE_HH
