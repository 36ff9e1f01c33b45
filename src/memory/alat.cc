#include "memory/alat.hh"

#include <algorithm>

#include "common/logging.hh"
#include "memory/sparse_memory.hh"

namespace ff
{
namespace memory
{

Alat::Slot *
Alat::find(DynId id)
{
    const auto it = std::lower_bound(
        _slots.begin() + static_cast<std::ptrdiff_t>(_head), _slots.end(),
        id, [](const Slot &s, DynId v) { return s.id < v; });
    return it != _slots.end() && it->id == id ? &*it : nullptr;
}

void
Alat::allocate(DynId id, Addr addr, unsigned size)
{
    ++_stats.allocations;
    // Reclaim slots whose entries were already released (merged loads,
    // invalidations) before deciding whether a real eviction is needed.
    while (_head < _slots.size() && !_slots[_head].live)
        ++_head;
    if (_capacity != 0 && _live >= _capacity) {
        // FIFO-evict the oldest live entry: the front slot, after the
        // reclaim above.
        release(_slots[_head++]);
        ++_stats.capacityEvictions;
    }
    // Drop reclaimed slots once they fill half the vector, so each
    // survivor moved is paid for by a reclaimed slot.
    if (_head * 2 >= _slots.size()) {
        _slots.erase(_slots.begin(),
                     _slots.begin() + static_cast<std::ptrdiff_t>(_head));
        _head = 0;
    }
    ff_panic_if(!_slots.empty() && _slots.back().id >= id,
                "ALAT allocations out of order: ", id, " after ",
                _slots.back().id);
    _slots.emplace_back(id, addr, size, true);
    ++_live;
}

void
Alat::invalidateOverlap(Addr addr, unsigned size)
{
    for (std::size_t i = _head; i < _slots.size(); ++i) {
        Slot &s = _slots[i];
        if (s.live && rangesOverlap(s.addr, s.size, addr, size)) {
            release(s);
            ++_stats.storeInvalidations;
        }
    }
}

bool
Alat::check(DynId id)
{
    const Slot *s = find(id);
    const bool present = s != nullptr && s->live;
    if (present)
        ++_stats.checksPassed;
    else
        ++_stats.checksFailed;
    return present;
}

void
Alat::remove(DynId id)
{
    if (Slot *s = find(id); s != nullptr && s->live)
        release(*s);
}

void
Alat::squashYoungerThan(DynId boundary)
{
    while (_slots.size() > _head && _slots.back().id > boundary) {
        if (_slots.back().live)
            --_live;
        _slots.pop_back();
    }
}

void
Alat::clear()
{
    _slots.clear();
    _head = 0;
    _live = 0;
}

void
saveStats(serial::Writer &w, const AlatStats &s)
{
    w.u64(s.allocations);
    w.u64(s.storeInvalidations);
    w.u64(s.capacityEvictions);
    w.u64(s.checksPassed);
    w.u64(s.checksFailed);
}

void
restoreStats(serial::Reader &r, AlatStats &s)
{
    s.allocations = r.u64();
    s.storeInvalidations = r.u64();
    s.capacityEvictions = r.u64();
    s.checksPassed = r.u64();
    s.checksFailed = r.u64();
}

void
Alat::save(serial::Writer &w) const
{
    w.u32(_capacity);

    // Live entries by id (allocation order is id order).
    w.u64(_live);
    for (std::size_t i = _head; i < _slots.size(); ++i) {
        const Slot &s = _slots[i];
        if (s.live) {
            w.u64(s.id);
            w.u64(s.addr);
            w.u32(s.size);
        }
    }

    // Every unreclaimed slot in allocation order, released ones
    // included: eviction order depends on them.
    w.u64(_slots.size() - _head);
    for (std::size_t i = _head; i < _slots.size(); ++i)
        w.u64(_slots[i].id);

    saveStats(w, _stats);
}

void
Alat::restore(serial::Reader &r)
{
    if (r.u32() != _capacity) {
        r.fail();
        return;
    }
    clear();
    std::vector<Slot> live(r.seq(20));
    for (Slot &s : live) {
        s.id = r.u64();
        s.addr = r.u64();
        s.size = r.u32();
        s.live = true;
    }
    // Interleave the live entries into the slot list in id order.
    std::size_t next = 0;
    const std::size_t slots = r.seq(8);
    for (std::size_t i = 0; i < slots; ++i) {
        const DynId id = r.u64();
        if (!_slots.empty() && _slots.back().id >= id) {
            r.fail();
            return;
        }
        if (next < live.size() && live[next].id == id)
            _slots.push_back(live[next++]);
        else
            _slots.push_back({id, 0, 0, false});
    }
    if (next != live.size()) {
        r.fail();
        return;
    }
    _live = live.size();
    restoreStats(r, _stats);
}

} // namespace memory
} // namespace ff
