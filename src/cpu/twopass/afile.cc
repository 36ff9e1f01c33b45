#include "cpu/twopass/afile.hh"

#include <bit>

#include "common/logging.hh"

namespace ff
{
namespace cpu
{

unsigned
AFile::repairFromArch(const RegFile &bfile)
{
    unsigned repaired = 0;
    // A slot needs repair iff it is invalid or speculative; scan the
    // packed words so runs of clean registers cost one test per 64.
    for (unsigned wi = 0; wi < PackedBits<kNumSlots>::kWords; ++wi) {
        std::uint64_t need = ~_valid.word(wi) | _spec.word(wi);
        while (need != 0) {
            const unsigned slot =
                wi * 64 + static_cast<unsigned>(std::countr_zero(need));
            need &= need - 1;
            if (slot >= kNumRegSlots)
                break; // the constant slots and the tail bits
            _value[slot] = bfile.read(slot);
            _lastWriter[slot] = kInvalidDynId;
            _readyAt[slot] = 0;
            _kind[slot] = PendingKind::kNone;
            ++repaired;
        }
    }
    _valid.setAll();
    _spec.clearAll();
    return repaired;
}

void
AFile::syncFromArch(const RegFile &bfile)
{
    for (unsigned slot = 0; slot < kNumRegSlots; ++slot) {
        _value[slot] = bfile.read(slot);
        _lastWriter[slot] = kInvalidDynId;
        _readyAt[slot] = 0;
        _kind[slot] = PendingKind::kNone;
    }
    _valid.setAll();
    _spec.clearAll();
}

void
AFile::reset()
{
    _value.fill(0);
    _value[isa::kOneSlot] = 1;
    _lastWriter.fill(kInvalidDynId);
    _readyAt.fill(0);
    _kind.fill(PendingKind::kNone);
    _valid.setAll();
    _spec.clearAll();
}

void
AFile::save(serial::Writer &w) const
{
    for (unsigned slot = 0; slot < kNumRegSlots; ++slot) {
        w.u64(_value[slot]);
        w.boolean(_valid.test(slot));
        w.boolean(_spec.test(slot));
        w.u64(_lastWriter[slot]);
        w.u64(_readyAt[slot]);
        w.u8(static_cast<std::uint8_t>(_kind[slot]));
    }
}

void
AFile::restore(serial::Reader &r)
{
    for (unsigned slot = 0; slot < kNumRegSlots; ++slot) {
        _value[slot] = r.u64();
        _valid.assign(slot, r.boolean());
        _spec.assign(slot, r.boolean());
        _lastWriter[slot] = r.u64();
        _readyAt[slot] = r.u64();
        _kind[slot] = static_cast<PendingKind>(r.u8());
    }
}

} // namespace cpu
} // namespace ff
