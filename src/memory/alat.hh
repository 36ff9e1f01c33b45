/**
 * @file
 * The two-pass ALAT of Section 3.4: a dynamic-ID-indexed conflict
 * detector, distinct from any architectural ALAT. Loads executed in
 * the A-pipe allocate entries; stores *executed in the B-pipe*
 * (i.e. deferred stores) delete overlapping entries; the merge of a
 * pre-executed load checks that its entry survived. A missing entry
 * means a conflicting older store intervened and speculative state
 * must be flushed.
 *
 * Table 1 models a perfect ALAT (no capacity conflicts); a finite
 * FIFO-evicting mode is provided for the capacity ablation, in which
 * evictions manifest as false-positive conflicts (safe, slower).
 *
 * DynIDs are allocated in increasing order and leave by merge, by a
 * squash of the youngest, or by a flush, so the table is one vector of
 * slots in allocation order, found by binary search on id. A released
 * slot stays in place (it still holds its eviction-order position)
 * until allocation reclaims it from the front.
 */

#ifndef FF_MEMORY_ALAT_HH
#define FF_MEMORY_ALAT_HH

#include <cstdint>
#include <vector>

#include "common/serialize.hh"
#include "common/types.hh"

namespace ff
{
namespace memory
{

/** Statistics the experiments report about ALAT behaviour. */
struct AlatStats
{
    std::uint64_t allocations = 0;
    std::uint64_t storeInvalidations = 0; ///< entries killed by stores
    std::uint64_t capacityEvictions = 0;
    std::uint64_t checksPassed = 0;
    std::uint64_t checksFailed = 0;

    void reset() { *this = AlatStats(); }
};

/**
 * Writes every AlatStats counter to @p w in declaration order: the
 * one encoding shared by model snapshots and result-cache entries.
 */
void saveStats(serial::Writer &w, const AlatStats &s);

/** Reads back what saveStats() wrote for an AlatStats. */
void restoreStats(serial::Reader &r, AlatStats &s);

/** DynID-indexed load-tracking table. */
class Alat
{
  public:
    /** @param capacity maximum live entries; 0 means perfect. */
    explicit Alat(unsigned capacity = 0) : _capacity(capacity) {}

    /**
     * Tracks an A-pipe load of [addr, addr+size). Ids increase from
     * one allocation to the next, a squash or clear() having dropped
     * any younger ones; an id at or below the youngest slot still held
     * panics.
     */
    void allocate(DynId id, Addr addr, unsigned size);

    /**
     * A deferred store executed in the B-pipe: kill overlaps, with
     * addresses wrapping at 2^64 as in SparseMemory.
     */
    void invalidateOverlap(Addr addr, unsigned size);

    /**
     * Merge-time check of a pre-executed load: true if its entry is
     * still live (no conflicting store intervened; also no capacity
     * eviction in finite mode).
     */
    bool check(DynId id);

    /** Releases the entry after a successful merge. */
    void remove(DynId id);

    /** Flush support: drops entries younger than @p boundary. */
    void squashYoungerThan(DynId boundary);

    void clear();

    std::size_t liveEntries() const { return _live; }
    const AlatStats &stats() const { return _stats; }
    AlatStats &stats() { return _stats; }

    /**
     * Snapshot hooks: the live entries by id, then every unreclaimed
     * slot's id in allocation order (released ones included), so
     * finite-capacity eviction order survives the round trip.
     * restore() fails the reader unless both lists ascend and every
     * live entry has a slot.
     */
    void save(serial::Writer &w) const;
    void restore(serial::Reader &r);

  private:
    struct Slot
    {
        DynId id;
        Addr addr;
        unsigned size;
        bool live; ///< false once merged, invalidated or evicted
    };

    /** The unreclaimed slot holding @p id, or nullptr. */
    Slot *find(DynId id);
    /** Marks @p s released. */
    void
    release(Slot &s)
    {
        s.live = false;
        --_live;
    }

    unsigned _capacity;
    /**
     * Slots in allocation (= ascending id) order; [0, _head) were
     * reclaimed and are dropped by the next compaction.
     */
    std::vector<Slot> _slots;
    std::size_t _head = 0;
    std::size_t _live = 0; ///< live slots in [_head, end)
    AlatStats _stats;
};

} // namespace memory
} // namespace ff

#endif // FF_MEMORY_ALAT_HH
