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
    std::size_t sizeBytes; ///< capacity in bytes
    unsigned assoc;        ///< ways per set
    unsigned lineBytes;    ///< line size, a power of two
    /** Load-to-use latency when the access is serviced here. */
    unsigned latency;
};

/** Result of inserting a line: what was evicted, if anything. */
struct Eviction
{
    bool valid = false; ///< a line was evicted
    bool dirty = false; ///< it was dirty: a writeback
    Addr lineAddr = 0;  ///< its line address
};

/** One level of tag state. */
class Cache
{
  public:
    /** An empty cache named @p name; fatal on a bad @p geom. */
    Cache(std::string name, const CacheGeometry &geom);

    /** The level's report name ("l1d", ...). */
    const std::string &name() const { return _name; }
    /** The level's geometry and latency. */
    const CacheGeometry &geometry() const { return _geom; }

    /** Line-aligns @p a for this level. */
    Addr lineAddr(Addr a) const { return a & ~static_cast<Addr>(
        _geom.lineBytes - 1); }

    /**
     * Probes for @p a; updates LRU on hit. Inline: every access of
     * every level, each fetch included, starts here.
     * @param set_dirty mark the line dirty on hit (store access)
     * @return true on hit
     */
    bool
    access(Addr a, bool set_dirty)
    {
        Line *set = &_lines[setIndex(a) * _geom.assoc];
        const Addr tag = tagOf(a);
        for (unsigned w = 0; w < _geom.assoc; ++w) {
            if (set[w].valid && set[w].tag == tag) {
                set[w].lruStamp = ++_clock;
                if (set_dirty)
                    set[w].dirty = true;
                ++_hits;
                return true;
            }
        }
        ++_misses;
        return false;
    }

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

    /** Probes that hit. */
    std::uint64_t hits() const { return _hits; }
    /** Probes that missed. */
    std::uint64_t misses() const { return _misses; }
    /** Valid lines replaced by insert(). */
    std::uint64_t evictions() const { return _evictions; }
    /** Evictions of dirty lines. */
    std::uint64_t writebacks() const { return _writebacks; }

    /**
     * Snapshot hooks: geometry is verified (a snapshot only restores
     * onto an identically configured cache), then the per-line tag/
     * LRU state, the LRU clock and the counters. Derived indexing
     * fields are constructor-computed and never serialized.
     */
    void save(serial::Writer &w) const;
    /** Exact inverse of save(); fails the reader on another geometry. */
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
