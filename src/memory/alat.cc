#include "memory/alat.hh"

#include <algorithm>
#include <vector>

namespace ff
{
namespace memory
{

void
Alat::allocate(DynId id, Addr addr, unsigned size)
{
    ++_stats.allocations;
    // Reclaim fifo slots whose entries were already released (merged
    // loads or squashes) before deciding whether a real eviction is
    // needed.
    while (!_fifo.empty() &&
           _entries.find(_fifo.front()) == _entries.end()) {
        _fifo.pop_front();
    }
    if (_capacity != 0 && _entries.size() >= _capacity) {
        // FIFO-evict the oldest still-live entry.
        while (!_fifo.empty()) {
            DynId victim = _fifo.front();
            _fifo.pop_front();
            auto it = _entries.find(victim);
            if (it != _entries.end()) {
                _entries.erase(it);
                ++_stats.capacityEvictions;
                break;
            }
        }
    }
    _entries[id] = {addr, size};
    _fifo.push_back(id);
}

void
Alat::invalidateOverlap(Addr addr, unsigned size)
{
    for (auto it = _entries.begin(); it != _entries.end();) {
        const bool overlap = addr < it->second.addr + it->second.size &&
                             it->second.addr < addr + size;
        if (overlap) {
            it = _entries.erase(it);
            ++_stats.storeInvalidations;
        } else {
            ++it;
        }
    }
}

bool
Alat::check(DynId id)
{
    const bool present = _entries.count(id) != 0;
    if (present)
        ++_stats.checksPassed;
    else
        ++_stats.checksFailed;
    return present;
}

void
Alat::remove(DynId id)
{
    _entries.erase(id);
}

void
Alat::squashYoungerThan(DynId boundary)
{
    for (auto it = _entries.begin(); it != _entries.end();) {
        if (it->first > boundary)
            it = _entries.erase(it);
        else
            ++it;
    }
    while (!_fifo.empty() && _fifo.back() > boundary)
        _fifo.pop_back();
}

void
Alat::clear()
{
    _entries.clear();
    _fifo.clear();
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

    // Entries sorted by id: lookup is by key, so order is semantics-
    // free, but sorting makes the encoded bytes deterministic.
    std::vector<DynId> ids;
    ids.reserve(_entries.size());
    for (const auto &[id, e] : _entries)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    w.u64(ids.size());
    for (const DynId id : ids) {
        const Entry &e = _entries.at(id);
        w.u64(id);
        w.u64(e.addr);
        w.u32(e.size);
    }

    // The fifo keeps allocation order (including slots whose entries
    // were already released) — eviction order depends on it.
    w.u64(_fifo.size());
    for (const DynId id : _fifo)
        w.u64(id);

    saveStats(w, _stats);
}

void
Alat::restore(serial::Reader &r)
{
    if (r.u32() != _capacity) {
        r.fail();
        return;
    }
    _entries.clear();
    _fifo.clear();
    const std::size_t entries = r.seq(20);
    for (std::size_t i = 0; i < entries; ++i) {
        const DynId id = r.u64();
        Entry e;
        e.addr = r.u64();
        e.size = r.u32();
        _entries[id] = e;
    }
    const std::size_t fifo = r.seq(8);
    for (std::size_t i = 0; i < fifo; ++i)
        _fifo.push_back(r.u64());
    restoreStats(r, _stats);
}

} // namespace memory
} // namespace ff
