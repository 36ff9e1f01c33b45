/**
 * @file
 * Bounded recent-state summaries of architectural events —
 * instruction fetches, data accesses, branch outcomes — recorded by
 * the functional CPU and replayed untimed into a timed model's caches
 * and predictor. This is the "functional warming" half of sampled
 * simulation (SMARTS-style): warpArchState() installs exact
 * architectural state but leaves the micro-architecture cold, and a
 * detailed warm-up long enough to fill multi-megabyte caches would
 * dwarf the measured window. Replaying the recent access history
 * instead reconstructs the hot tag/LRU and predictor state in
 * microseconds, so the detailed warm-up only has to fill the
 * pipeline.
 *
 * Cache state is summarized as the set of unique recently-touched
 * blocks in last-access order (WarmLruSet), not as a raw access
 * ring: an LRU set retains exactly "the most recent unique blocks in
 * recency order", which is also all that a cache's final tag and LRU
 * state depend on — so replaying the set, least recent first, warms
 * to the same state as replaying the full access stream, at a cost
 * bounded by cache capacity instead of access count. Branch outcomes
 * stay a raw ring; history-based predictors train on the sequence,
 * so deduplication would change their state.
 *
 * Events hold raw block addresses and directions — no cache
 * geometry, no predictor kind — so one recorded history warms any
 * (model kind, machine configuration) pair and checkpoint plans stay
 * shareable.
 */

#ifndef FF_CPU_WARM_HISTORY_HH
#define FF_CPU_WARM_HISTORY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace ff
{
namespace cpu
{

/**
 * Tracking granularity: accesses coalesce to aligned blocks of this
 * many bytes. A cache replays same-line accesses as tag hits with no
 * LRU movement, so for line sizes of at least this granularity the
 * block-granular history warms to the exact same state. 64 matches
 * the smallest line in the Table 1 machine; configurations with
 * smaller lines merely warm a hair conservatively.
 */
inline constexpr Addr kWarmCoalesceBytes = 64;

/**
 * Default capacities, in unique blocks (data, fetch) and raw events
 * (branch). The data set is sized to cover the Table 1 L3 — 12288
 * lines of 128 bytes, up to 24576 64-byte blocks when a line is
 * touched in both halves; the fetch set covers a code footprint far
 * beyond the 16KB L1I; the branch ring saturates a few-K-entry
 * predictor.
 */
inline constexpr std::size_t kWarmMemBlocks = 24576;
inline constexpr std::size_t kWarmFetchBlocks = 2048;
inline constexpr std::size_t kWarmBranchEvents = 8192;

/**
 * A bounded set of unique blocks kept in last-access order, the
 * least recently touched evicted on overflow — i.e. exactly the
 * retention policy of a fully-associative LRU cache of the same
 * capacity. Storage is two flat arrays (an entry slab threaded into
 * an intrusive doubly-linked recency list, and an open-addressing
 * index of slab positions), so copying a set — which checkpointing
 * does a lot — is a pair of flat vector copies, never a node-based
 * rehash.
 */
class WarmLruSet
{
  public:
    struct Event
    {
        Addr addr = 0; ///< block-aligned address
        bool store = false; ///< direction of the latest access
    };

    explicit WarmLruSet(std::size_t cap) : _cap(cap)
    {
        std::size_t slots = 2;
        while (slots < cap * 2)
            slots <<= 1;
        _mask = static_cast<std::uint32_t>(slots - 1);
        _table.assign(slots, -1);
        _entries.reserve(cap);
    }

    /** Records an access, moving @p addr's block to most-recent. */
    void
    touch(Addr addr, bool store)
    {
        std::uint32_t h = slotFor(addr);
        if (_table[h] >= 0) {
            const std::int32_t idx = _table[h];
            _entries[idx].ev.store = store;
            moveToBack(idx);
            return;
        }
        std::int32_t idx;
        if (_entries.size() == _cap) {
            idx = _head; // evict the least recently touched block
            unlink(idx);
            erase(_entries[idx].ev.addr);
            h = slotFor(addr); // erase may have shifted the cluster
        } else {
            idx = static_cast<std::int32_t>(_entries.size());
            _entries.push_back(Entry{});
        }
        _entries[idx].ev = {addr, store};
        linkBack(idx);
        _table[h] = idx;
    }

    std::size_t size() const { return _entries.size(); }

    /** Visits every retained block, least recently touched first. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::int32_t i = _head; i >= 0; i = _entries[i].next)
            f(_entries[i].ev);
    }

  private:
    struct Entry
    {
        Event ev{};
        std::int32_t prev = -1;
        std::int32_t next = -1;
    };

    static std::uint64_t
    mix(Addr a)
    {
        const std::uint64_t x = a * 0x9E3779B97F4A7C15ull;
        return x ^ (x >> 29);
    }

    /** The slot holding @p addr, or the empty slot it would go in. */
    std::uint32_t
    slotFor(Addr addr) const
    {
        std::uint32_t h =
            static_cast<std::uint32_t>(mix(addr)) & _mask;
        while (_table[h] >= 0 && _entries[_table[h]].ev.addr != addr)
            h = (h + 1) & _mask;
        return h;
    }

    /** Clears @p addr's slot, backward-shifting its probe cluster. */
    void
    erase(Addr addr)
    {
        std::uint32_t hole = slotFor(addr);
        std::uint32_t next = (hole + 1) & _mask;
        while (_table[next] >= 0) {
            const std::uint32_t ideal =
                static_cast<std::uint32_t>(
                    mix(_entries[_table[next]].ev.addr)) &
                _mask;
            if (((next - ideal) & _mask) >= ((next - hole) & _mask)) {
                _table[hole] = _table[next];
                hole = next;
            }
            next = (next + 1) & _mask;
        }
        _table[hole] = -1;
    }

    void
    unlink(std::int32_t idx)
    {
        Entry &e = _entries[idx];
        (e.prev >= 0 ? _entries[e.prev].next : _head) = e.next;
        (e.next >= 0 ? _entries[e.next].prev : _tail) = e.prev;
        e.prev = e.next = -1;
    }

    void
    linkBack(std::int32_t idx)
    {
        Entry &e = _entries[idx];
        e.prev = _tail;
        e.next = -1;
        (_tail >= 0 ? _entries[_tail].next : _head) = idx;
        _tail = idx;
    }

    void
    moveToBack(std::int32_t idx)
    {
        if (_tail == idx)
            return;
        unlink(idx);
        linkBack(idx);
    }

    std::size_t _cap;
    std::uint32_t _mask = 0;
    std::int32_t _head = -1; ///< least recently touched
    std::int32_t _tail = -1; ///< most recently touched
    std::vector<Entry> _entries;
    std::vector<std::int32_t> _table; ///< open addressing, -1 empty
};

/** Fixed-capacity ring preserving insertion order. */
template <typename T>
class WarmRing
{
  public:
    explicit WarmRing(std::size_t cap) : _cap(cap)
    {
        _items.reserve(cap);
    }

    void
    push(const T &v)
    {
        if (_items.size() < _cap) {
            _items.push_back(v);
        } else {
            _items[_head] = v;
            _head = (_head + 1) % _cap;
        }
    }

    std::size_t size() const { return _items.size(); }

    /** Visits every retained event, oldest first. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::size_t i = 0; i < _items.size(); ++i)
            f(_items[(_head + i) % _items.size()]);
    }

  private:
    std::size_t _cap;
    std::size_t _head = 0; ///< index of the oldest element when full
    std::vector<T> _items;
};

/**
 * A frozen WarmHistory: the same events flattened into plain vectors
 * in replay order (mem/fetch least recently touched first, branches
 * oldest first). Checkpoints store this form — it drops the live
 * structures' hash tables and recency links, so a checkpoint copy is
 * three straight vector copies and replay is a linear scan.
 */
struct WarmSnapshot
{
    struct BranchEvent
    {
        Addr pc; ///< address of the branch slot (predictor index)
        bool taken;
    };

    std::vector<WarmLruSet::Event> mem;
    std::vector<Addr> fetch;
    std::vector<BranchEvent> branch;
};

/** The recorded warming events around one point of the execution. */
class WarmHistory
{
  public:
    using MemEvent = WarmLruSet::Event;
    using BranchEvent = WarmSnapshot::BranchEvent;

    WarmHistory(std::size_t mem_cap = kWarmMemBlocks,
                std::size_t fetch_cap = kWarmFetchBlocks,
                std::size_t branch_cap = kWarmBranchEvents)
        : _mem(mem_cap), _fetch(fetch_cap), _branch(branch_cap)
    {
    }

    void
    recordMem(Addr a, bool store)
    {
        const Addr blk = a & ~(kWarmCoalesceBytes - 1);
        if (blk == _lastMemBlk && store == _lastMemStore)
            return;
        _lastMemBlk = blk;
        _lastMemStore = store;
        _mem.touch(blk, store);
    }

    void
    recordFetch(Addr a)
    {
        const Addr blk = a & ~(kWarmCoalesceBytes - 1);
        if (blk == _lastFetchBlk)
            return;
        _lastFetchBlk = blk;
        _fetch.touch(blk, false);
    }

    /** Branches train counters, so every outcome is kept. */
    void recordBranch(Addr pc, bool t) { _branch.push({pc, t}); }

    /** Freezes the current state into its replay-ordered flat form. */
    WarmSnapshot
    snapshot() const
    {
        WarmSnapshot s;
        s.mem.reserve(_mem.size());
        _mem.forEach(
            [&](const WarmLruSet::Event &e) { s.mem.push_back(e); });
        s.fetch.reserve(_fetch.size());
        _fetch.forEach([&](const WarmLruSet::Event &e) {
            s.fetch.push_back(e.addr);
        });
        s.branch.reserve(_branch.size());
        _branch.forEach(
            [&](const BranchEvent &e) { s.branch.push_back(e); });
        return s;
    }

  private:
    WarmLruSet _mem;
    WarmLruSet _fetch;
    WarmRing<BranchEvent> _branch;
    Addr _lastMemBlk = ~Addr(0); ///< coalescing state (recordMem)
    bool _lastMemStore = false;
    Addr _lastFetchBlk = ~Addr(0);
};

} // namespace cpu
} // namespace ff

#endif // FF_CPU_WARM_HISTORY_HH
