/**
 * @file
 * A tag-only set-associative cache with true-LRU replacement. Data
 * values live in SparseMemory (the functional source of truth); the
 * caches model *timing* state: presence, dirtiness and recency.
 */

#ifndef FF_MEMORY_CACHE_HH
#define FF_MEMORY_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "common/types.hh"

namespace ff
{
namespace memory
{

/** Geometry and access time of one cache level. */
struct CacheGeometry
{
    std::size_t sizeBytes;
    unsigned assoc;
    unsigned lineBytes;
    /** Load-to-use latency when the access is serviced here. */
    unsigned latency;
};

/** Result of inserting a line: what was evicted, if anything. */
struct Eviction
{
    bool valid = false;
    bool dirty = false;
    Addr lineAddr = 0;
};

/** One level of tag state. */
class Cache
{
  public:
    Cache(std::string name, const CacheGeometry &geom);

    const std::string &name() const { return _name; }
    const CacheGeometry &geometry() const { return _geom; }

    /** Line-aligns @p a for this level. */
    Addr lineAddr(Addr a) const { return a & ~static_cast<Addr>(
        _geom.lineBytes - 1); }

    /**
     * Probes for @p a; updates LRU on hit.
     * @param set_dirty mark the line dirty on hit (store access)
     * @return true on hit
     */
    bool access(Addr a, bool set_dirty);

    /** Probe without touching LRU/dirty state (for tests/debug). */
    bool contains(Addr a) const;

    /**
     * Installs the line containing @p a, evicting the LRU way if the
     * set is full.
     * @param dirty install in dirty state (store fill)
     */
    Eviction insert(Addr a, bool dirty);

    /** Invalidates a line if present (back-invalidation). */
    void invalidate(Addr a);

    /** Drops all tag state (used between harness runs). */
    void reset();

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }
    std::uint64_t evictions() const { return _evictions; }
    std::uint64_t writebacks() const { return _writebacks; }

    /**
     * Snapshot hooks: geometry is verified (a snapshot only restores
     * onto an identically configured cache), then the per-line tag/
     * LRU state, the LRU clock and the counters. Derived indexing
     * fields are constructor-computed and never serialized.
     */
    void save(serial::Writer &w) const;
    void restore(serial::Reader &r);

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t lruStamp = 0;
    };

    // Set/tag extraction runs on every access of every level — the
    // hottest address arithmetic in the simulator. Line size is
    // power-of-two by construction; when the set count is too (every
    // Table 1 geometry), the div/mod pair reduces to shift/mask.
    std::size_t setIndex(Addr a) const
    {
        const Addr line = a >> _lineShift;
        return _pow2Sets ? static_cast<std::size_t>(line & _setMask)
                         : static_cast<std::size_t>(line % _numSets);
    }

    Addr tagOf(Addr a) const
    {
        const Addr line = a >> _lineShift;
        return _pow2Sets ? line >> _setShift : line / _numSets;
    }

    std::string _name;
    CacheGeometry _geom;
    std::size_t _numSets;
    unsigned _lineShift = 0;  ///< log2(lineBytes)
    bool _pow2Sets = false;   ///< set count is a power of two
    unsigned _setShift = 0;   ///< log2(numSets) when _pow2Sets
    Addr _setMask = 0;        ///< numSets - 1 when _pow2Sets
    std::vector<Line> _lines; ///< _numSets * assoc, set-major
    std::uint64_t _clock = 0; ///< LRU timestamp source

    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _evictions = 0;
    std::uint64_t _writebacks = 0;
};

} // namespace memory
} // namespace ff

#endif // FF_MEMORY_CACHE_HH
