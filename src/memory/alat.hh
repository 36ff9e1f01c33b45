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
 */

#ifndef FF_MEMORY_ALAT_HH
#define FF_MEMORY_ALAT_HH

#include <cstdint>
#include <deque>
#include <unordered_map>

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

    /** Tracks an A-pipe load of [addr, addr+size). */
    void allocate(DynId id, Addr addr, unsigned size);

    /** A deferred store executed in the B-pipe: kill overlaps. */
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

    std::size_t liveEntries() const { return _entries.size(); }
    const AlatStats &stats() const { return _stats; }
    AlatStats &stats() { return _stats; }

    /**
     * Snapshot hooks. The allocation-order fifo is captured alongside
     * the live entries so finite-capacity eviction order survives the
     * round trip.
     */
    void save(serial::Writer &w) const;
    void restore(serial::Reader &r);

  private:
    struct Entry
    {
        Addr addr;
        unsigned size;
    };

    unsigned _capacity;
    std::unordered_map<DynId, Entry> _entries;
    std::deque<DynId> _fifo; ///< allocation order, for finite eviction
    AlatStats _stats;
};

} // namespace memory
} // namespace ff

#endif // FF_MEMORY_ALAT_HH
