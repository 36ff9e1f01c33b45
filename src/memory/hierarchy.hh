/**
 * @file
 * The four-level memory hierarchy of Table 1: split 16KB L1I/L1D,
 * unified 256KB L2 and 1.5MB L3, 145-cycle main memory, with up to
 * 16 outstanding loads (MSHRs) and merging of accesses into in-flight
 * fills. Caches are tag-only; values come from SparseMemory.
 *
 * Every access records its initiator (baseline pipe, A-pipe, B-pipe)
 * and the level that serviced it, weighted by latency — exactly the
 * accounting behind the paper's Figure 7.
 */

#ifndef FF_MEMORY_HIERARCHY_HH
#define FF_MEMORY_HIERARCHY_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/serialize.hh"
#include "memory/cache.hh"

namespace ff
{
namespace memory
{

/** Which level serviced an access. */
enum class MemLevel : std::uint8_t
{
    kL1 = 0,     ///< an L1 (hit, or merged into an L1 fill in flight)
    kL2 = 1,     ///< the unified L2
    kL3 = 2,     ///< the unified L3
    kMemory = 3, ///< main memory
};
inline constexpr unsigned kNumMemLevels = 4; ///< MemLevel values

/** Short report name of @p l ("L1", "L2", "L3", "Mem"). */
const char *memLevelName(MemLevel l);

/** What kind of access is being made. */
enum class AccessKind : std::uint8_t
{
    kInstFetch, ///< through the L1I
    kLoad,      ///< through the L1D; an unmerged miss takes an MSHR
    kStore,     ///< through the L1D, write-allocate, no MSHR
};

/** Who initiated the access (Figure 7's categories). */
enum class Initiator : std::uint8_t
{
    kBaseline = 0, ///< the baseline in-order pipe
    kApipe = 1,    ///< the two-pass A-pipe (and its front end)
    kBpipe = 2,    ///< the two-pass B-pipe
    kRunahead = 3, ///< the run-ahead core, in either mode
};
inline constexpr unsigned kNumInitiators = 4; ///< Initiator values

/** Configuration of the full hierarchy (defaults per Table 1). */
struct MemoryConfig
{
    CacheGeometry l1i{16 * 1024, 4, 64, 2};        ///< L1 instructions
    CacheGeometry l1d{16 * 1024, 4, 64, 2};        ///< L1 data
    CacheGeometry l2{256 * 1024, 8, 128, 5};       ///< unified L2
    CacheGeometry l3{3 * 512 * 1024, 12, 128, 15}; ///< unified L3
    unsigned memoryLatency = 145;     ///< cycles to main memory
    unsigned maxOutstandingLoads = 16; ///< MSHRs

    /**
     * Next-line hardware prefetch degree on the data side: a demand
     * load miss also requests the following N L1 lines (0 = off,
     * the Table 1 machine). Prefetches use their own request slots
     * (no MSHR pressure) — an idealization noted in DESIGN.md.
     */
    unsigned prefetchDegree = 0;
};

/** Outcome of a timed access. */
struct AccessResult
{
    MemLevel level;    ///< level that services the access
    unsigned latency;  ///< cycles until the value is usable
    bool mergedInFlight = false; ///< folded into an outstanding fill
};

/** Per-(initiator, level) access accounting for Figure 7. */
struct AccessStats
{
    /** Accesses per initiator and servicing level. */
    std::array<std::array<std::uint64_t, kNumMemLevels>, kNumInitiators>
        counts{};
    /** The same accesses' latencies, summed. */
    std::array<std::array<std::uint64_t, kNumMemLevels>, kNumInitiators>
        weightedCycles{};

    /** Counts one access of @p latency cycles. */
    void
    record(Initiator who, MemLevel level, unsigned latency)
    {
        auto w = static_cast<unsigned>(who);
        auto l = static_cast<unsigned>(level);
        ++counts[w][l];
        weightedCycles[w][l] += latency;
    }

    /** Zeroes every count and sum. */
    void reset() { counts = {}; weightedCycles = {}; }
};

/**
 * Writes @p s to @p w, every count and then every weighted-cycle sum,
 * each row by row: the one encoding shared by hierarchy snapshots and
 * result-cache entries.
 */
void saveStats(serial::Writer &w, const AccessStats &s);

/** Reads back what saveStats() wrote for an AccessStats. */
void restoreStats(serial::Reader &r, AccessStats &s);

/**
 * The timed memory system. Call tick(now) once per cycle before any
 * access in that cycle so due fills land first.
 */
class Hierarchy
{
  public:
    /** Builds cold caches of @p cfg's geometry, nothing in flight. */
    explicit Hierarchy(const MemoryConfig &cfg);

    /**
     * Processes fills that complete at or before @p now and releases
     * MSHRs of completed loads. Called by every core model on each
     * cycle its run loop steps, so the nothing-due case is two
     * comparisons against cached minima — no container traversal.
     */
    void
    tick(Cycle now)
    {
        if (_nextFillDue <= now)
            drainFills(now);
        if (!_outstandingLoads.empty() &&
            _outstandingLoads.front() <= now) {
            releaseLoads(now);
        }
    }

    /**
     * The first cycle at which tick() has work: the earlier of the
     * next pending fill and the next MSHR release, or kNeverCycle.
     * tick(t) does nothing, and outstandingLoads(t) stays the same,
     * for every t before it while no access is made.
     */
    Cycle
    nextEvent() const
    {
        const Cycle release = _outstandingLoads.empty()
                                  ? kNeverCycle
                                  : _outstandingLoads.front();
        return std::min(_nextFillDue, release);
    }

    /**
     * Performs a timed access.
     *
     * Loads that miss the L1 are either merged into an in-flight fill
     * of the same L1 line (no new MSHR) or allocate an MSHR slot --
     * callers must have checked loadSlotAvailable(). Stores never
     * take an MSHR (a write buffer is assumed); they allocate lines
     * (write-allocate) and dirty them. Instruction fetches go through
     * the L1I and share L2/L3.
     *
     * An L1 hit, the common case of every fetch, load and store, is
     * served here inline; a miss goes on to accessMiss().
     */
    AccessResult
    access(AccessKind kind, Initiator who, Addr addr, Cycle now)
    {
        const bool is_inst = kind == AccessKind::kInstFetch;
        Cache &l1 = is_inst ? _l1i : _l1d;
        if (!l1.access(addr, kind == AccessKind::kStore))
            return accessMiss(kind, who, addr, now);
        const AccessResult r{MemLevel::kL1, l1.geometry().latency};
        (is_inst ? _instStats : _stats).record(who, r.level, r.latency);
        return r;
    }

    /**
     * Untimed warming access: probes and fills the tag hierarchy
     * exactly like a completed timed access — L1 hit updates LRU, a
     * miss installs the line in every level below the hit level, with
     * stores dirtying the L1 line — but schedules no fills, takes no
     * MSHR and advances no clock. Replaying an access history through
     * this reconstructs hot tag/LRU state for sampled-simulation
     * checkpoints. Hit/miss counters do tick (warming is visible in
     * raw cache statistics, never in timing).
     */
    void warmAccess(AccessKind kind, Addr addr);

    /** True if a load missing the L1 could allocate an MSHR now. */
    bool loadSlotAvailable(Cycle now) const;

    /** Current number of loads outstanding past the L1. */
    unsigned outstandingLoads(Cycle now) const;

    /** Data-side next-line prefetches issued so far. */
    std::uint64_t prefetchesIssued() const { return _prefetches; }

    /** Data-side (load/store) accounting — Figure 7's input. */
    const AccessStats &accessStats() const { return _stats; }
    AccessStats &accessStats() { return _stats; }

    /** Instruction-fetch accounting, kept separate from Figure 7. */
    const AccessStats &instAccessStats() const { return _instStats; }

    Cache &l1i() { return _l1i; } ///< the L1 instruction cache
    Cache &l1d() { return _l1d; } ///< the L1 data cache
    Cache &l2() { return _l2; }   ///< the unified L2
    Cache &l3() { return _l3; }   ///< the unified L3
    /** The configuration the hierarchy was built with. */
    const MemoryConfig &config() const { return _cfg; }

    /** Clears all tag state, fills and stats. */
    void reset();

    /**
     * Snapshot hooks: all four caches, pending fills in completion
     * order (insertion order among same-cycle fills is preserved, so
     * install order replays exactly), the in-flight data and
     * instruction lines (derived from the fills; restore() fails the
     * reader when the two disagree), the MSHR min-heap verbatim, and
     * every statistic.
     */
    void save(serial::Writer &w) const;
    /** Exact inverse of save() on a hierarchy of the same config. */
    void restore(serial::Reader &r);

  private:
    struct PendingFill
    {
        Addr l1Line;       ///< L1-granularity line address
        bool isInst;       ///< fill L1I instead of L1D
        bool dirty;        ///< install dirty in the L1 (store fill)
        MemLevel from;     ///< level that supplied the line
    };

    /**
     * The rest of access() after its L1 probe missed (and counted the
     * miss): merges into a fill in flight or takes the miss path, then
     * records the access. Never probes the L1 again.
     */
    AccessResult accessMiss(AccessKind kind, Initiator who, Addr addr,
                            Cycle now);

    /** Looks up levels below L1; schedules the fill; returns result. */
    AccessResult missPath(AccessKind kind, Addr addr, bool is_inst,
                          Cycle now);

    /** Installs every fill due by @p now (slow half of tick()). */
    void drainFills(Cycle now);
    /** Pops completed loads off the MSHR heap (slow half of tick()). */
    void releaseLoads(Cycle now);

    /**
     * Queues a fill of @p line, keeping the table sorted by due cycle
     * with same-cycle fills in insertion order (the multimap ordering
     * this table replaced, so install order replays identically).
     */
    void scheduleFill(Cycle due, const PendingFill &fill);

    /**
     * Due cycle of the fill in flight for L1 line @p l1_line on the
     * instruction (@p is_inst) or data side, or kNoFill. A line has at
     * most one fill in flight per side: an access merges into it, and
     * a prefetch skips it.
     */
    Cycle fillDue(Addr l1_line, bool is_inst) const;

    /** _nextFillDue value meaning "no fill in flight". */
    static constexpr Cycle kNoFill =
        std::numeric_limits<Cycle>::max();

    MemoryConfig _cfg;
    Cache _l1i;
    Cache _l1d;
    Cache _l2;
    Cache _l3;

    /**
     * Fills in flight as a flat table sorted by completion cycle. It
     * is also the in-flight line index that merges and prefetches
     * search. It is bounded by the MSHRs, the store and fetch misses
     * and the prefetches in flight, so the O(n) sorted insert, front
     * erase and search beat any node-based map.
     */
    std::vector<std::pair<Cycle, PendingFill>> _pendingFills;
    /** Due cycle of the earliest pending fill, or kNoFill. */
    Cycle _nextFillDue = kNoFill;

    /**
     * Completion cycles of loads occupying MSHRs, as a min-heap on
     * completion cycle. Expired entries are purged in tick(now), so
     * outstandingLoads() — called per dispatched load — is O(1) in
     * the common case: once the heap minimum is past @c now, every
     * entry is.
     */
    std::vector<Cycle> _outstandingLoads;

    AccessStats _stats;
    AccessStats _instStats;
    std::uint64_t _prefetches = 0;
};

} // namespace memory
} // namespace ff

#endif // FF_MEMORY_HIERARCHY_HH
