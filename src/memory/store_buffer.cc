#include "memory/store_buffer.hh"

#include "common/logging.hh"

namespace ff
{
namespace memory
{

void
StoreBuffer::insert(DynId id, Addr addr, unsigned size,
                    std::uint64_t value)
{
    ff_panic_if(full(), "store buffer overflow (caller must check)");
    ff_panic_if(!_entries.empty() && _entries.back().id >= id,
                "store buffer entries out of order");
    _entries.emplace_back(id, addr, size, value);
}

std::uint64_t
StoreBuffer::read(DynId load_id, Addr addr, unsigned size,
                  const SparseMemory &mem, bool *any_forwarded) const
{
    // One memory read, then the bytes of every older overlapping store
    // laid over it oldest first, so the youngest store of each byte
    // wins. With no such store (the common case) the loop below only
    // tests each entry once.
    std::uint64_t v = mem.read(addr, size);
    bool forwarded = false;
    for (std::size_t i = 0; i < _entries.size(); ++i) {
        const StoreBufferEntry &e = _entries[i];
        if (e.id >= load_id || !rangesOverlap(e.addr, e.size, addr, size))
            continue;
        forwarded = true;
        for (unsigned byte = 0; byte < size; ++byte) {
            const Addr off = addr + byte - e.addr; // wraps like memory
            if (off >= e.size)
                continue;
            const std::uint64_t mask = std::uint64_t{0xFF} << (8 * byte);
            v = (v & ~mask) |
                (((e.value >> (8 * off)) & 0xFF) << (8 * byte));
        }
    }
    if (any_forwarded)
        *any_forwarded = forwarded;
    return v;
}

void
StoreBuffer::commitOldest(DynId id, SparseMemory &mem)
{
    ff_panic_if(_entries.empty(), "commit from empty store buffer");
    const StoreBufferEntry &e = _entries.front();
    ff_panic_if(e.id != id, "store buffer commit order violation: head ",
                e.id, " vs requested ", id);
    mem.write(e.addr, e.value, e.size);
    _entries.pop_front();
}

void
StoreBuffer::squashYoungerThan(DynId boundary)
{
    while (!_entries.empty() && _entries.back().id > boundary)
        _entries.pop_back();
}

} // namespace memory
} // namespace ff
