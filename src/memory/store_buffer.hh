/**
 * @file
 * The speculative store buffer of Section 3.4. Stores executed in the
 * A-pipe never touch architectural memory; their (address, value)
 * pairs wait here and forward, byte-accurately, to younger A-pipe
 * loads. When a pre-executed store reaches the B-pipe its entry is
 * committed to memory and released. Flushes squash younger entries.
 */

#ifndef FF_MEMORY_STORE_BUFFER_HH
#define FF_MEMORY_STORE_BUFFER_HH

#include <cstdint>

#include "common/ring.hh"
#include "common/serialize.hh"
#include "common/types.hh"
#include "memory/sparse_memory.hh"

namespace ff
{
namespace memory
{

/** One buffered speculative store. */
struct StoreBufferEntry
{
    DynId id;
    Addr addr;
    unsigned size;
    std::uint64_t value;
};

/** In-order buffer of A-pipe-executed stores awaiting commit. */
class StoreBuffer
{
  public:
    explicit StoreBuffer(std::size_t capacity = 64)
        : _capacity(capacity), _entries(capacity)
    {
    }

    bool full() const { return _entries.size() >= _capacity; }
    bool empty() const { return _entries.empty(); }
    std::size_t size() const { return _entries.size(); }

    /**
     * Buffers a store. Entries must arrive in ascending DynId order
     * (the A-pipe executes in order); violations panic.
     */
    void insert(DynId id, Addr addr, unsigned size, std::uint64_t value);

    /**
     * Composes the value an A-pipe load observes: per byte, the
     * youngest buffered store older than @p load_id covering that
     * byte wins; uncovered bytes come from @p mem. Addresses wrap at
     * 2^64, as in SparseMemory.
     *
     * @param any_forwarded set true if at least one byte came from
     *        the buffer (store-to-load forwarding occurred)
     */
    std::uint64_t read(DynId load_id, Addr addr, unsigned size,
                       const SparseMemory &mem,
                       bool *any_forwarded = nullptr) const;

    /**
     * Commits the oldest entry (which must carry @p id) into @p mem
     * and releases it. The B-pipe calls this when a pre-executed
     * store merges.
     */
    void commitOldest(DynId id, SparseMemory &mem);

    /** Removes every entry younger than @p boundary (flush). */
    void squashYoungerThan(DynId boundary);

    void clear() { _entries.clear(); }

    const Ring<StoreBufferEntry> &entries() const { return _entries; }

    /** Snapshot hooks: capacity (verified on restore) + entries. */
    void
    save(serial::Writer &w) const
    {
        w.u64(_capacity);
        w.u64(_entries.size());
        for (std::size_t i = 0; i < _entries.size(); ++i) {
            const StoreBufferEntry &e = _entries[i];
            w.u64(e.id);
            w.u64(e.addr);
            w.u32(e.size);
            w.u64(e.value);
        }
    }

    void
    restore(serial::Reader &r)
    {
        if (r.u64() != _capacity) {
            r.fail();
            return;
        }
        _entries.clear();
        const std::size_t n = r.seq(28);
        if (n > _capacity) {
            r.fail();
            return;
        }
        for (std::size_t i = 0; i < n; ++i) {
            StoreBufferEntry e;
            e.id = r.u64();
            e.addr = r.u64();
            e.size = r.u32();
            e.value = r.u64();
            _entries.emplace_back(e);
        }
    }

  private:
    std::size_t _capacity;
    Ring<StoreBufferEntry> _entries; ///< oldest first
};

} // namespace memory
} // namespace ff

#endif // FF_MEMORY_STORE_BUFFER_HH
