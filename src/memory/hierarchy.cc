#include "memory/hierarchy.hh"

#include <algorithm>
#include <functional>

#include "common/logging.hh"

namespace ff
{
namespace memory
{

const char *
memLevelName(MemLevel l)
{
    switch (l) {
      case MemLevel::kL1: return "L1";
      case MemLevel::kL2: return "L2";
      case MemLevel::kL3: return "L3";
      case MemLevel::kMemory: return "Mem";
    }
    return "?";
}

Hierarchy::Hierarchy(const MemoryConfig &cfg)
    : _cfg(cfg),
      _l1i("l1i", cfg.l1i),
      _l1d("l1d", cfg.l1d),
      _l2("l2", cfg.l2),
      _l3("l3", cfg.l3)
{
}

void
Hierarchy::drainFills(Cycle now)
{
    while (!_pendingFills.empty() && _pendingFills.front().first <= now) {
        const PendingFill f = _pendingFills.front().second;
        _pendingFills.erase(_pendingFills.begin());

        // Install bottom-up so inclusive-ish state is sensible.
        if (f.from == MemLevel::kMemory) {
            _l3.insert(f.l1Line, false);
            _l2.insert(f.l1Line, false);
        } else if (f.from == MemLevel::kL3) {
            _l2.insert(f.l1Line, false);
        }
        Cache &l1 = f.isInst ? _l1i : _l1d;
        l1.insert(f.l1Line, f.dirty);
    }
    _nextFillDue =
        _pendingFills.empty() ? kNoFill : _pendingFills.front().first;
}

void
Hierarchy::releaseLoads(Cycle now)
{
    // Expire MSHRs whose loads have completed (heap min first).
    while (!_outstandingLoads.empty() && _outstandingLoads.front() <= now) {
        std::pop_heap(_outstandingLoads.begin(), _outstandingLoads.end(),
                      std::greater<Cycle>());
        _outstandingLoads.pop_back();
    }
}

void
Hierarchy::scheduleFill(Cycle due, const PendingFill &fill)
{
    // upper_bound keeps same-cycle fills in insertion order.
    auto pos = std::upper_bound(
        _pendingFills.begin(), _pendingFills.end(), due,
        [](Cycle d, const std::pair<Cycle, PendingFill> &p) {
            return d < p.first;
        });
    _pendingFills.insert(pos, {due, fill});
    if (due < _nextFillDue)
        _nextFillDue = due;
}

Cycle
Hierarchy::fillDue(Addr l1_line, bool is_inst) const
{
    for (const auto &[due, f] : _pendingFills) {
        if (f.l1Line == l1_line && f.isInst == is_inst)
            return due;
    }
    return kNoFill;
}

bool
Hierarchy::loadSlotAvailable(Cycle now) const
{
    return outstandingLoads(now) < _cfg.maxOutstandingLoads;
}

unsigned
Hierarchy::outstandingLoads(Cycle now) const
{
    if (_outstandingLoads.empty())
        return 0;
    // tick(now) purged everything due; if the heap minimum is still in
    // the future, so is every entry.
    if (_outstandingLoads.front() > now)
        return static_cast<unsigned>(_outstandingLoads.size());
    // Queried ahead of the purge (e.g. a probe at a later cycle):
    // count exactly.
    unsigned n = 0;
    for (Cycle c : _outstandingLoads) {
        if (c > now)
            ++n;
    }
    return n;
}

AccessResult
Hierarchy::missPath(AccessKind kind, Addr addr, bool is_inst, Cycle now)
{
    AccessResult r{};
    const bool is_store = kind == AccessKind::kStore;
    if (_l2.access(addr, false)) {
        r.level = MemLevel::kL2;
        r.latency = _cfg.l2.latency;
    } else if (_l3.access(addr, false)) {
        r.level = MemLevel::kL3;
        r.latency = _cfg.l3.latency;
    } else {
        r.level = MemLevel::kMemory;
        r.latency = _cfg.memoryLatency;
    }

    Cache &l1 = is_inst ? _l1i : _l1d;
    const Addr line = l1.lineAddr(addr);
    const Cycle due = now + r.latency;
    scheduleFill(due, PendingFill{line, is_inst, is_store, r.level});

    if (kind == AccessKind::kLoad) {
        _outstandingLoads.push_back(due);
        std::push_heap(_outstandingLoads.begin(), _outstandingLoads.end(),
                       std::greater<Cycle>());
    }
    return r;
}

void
Hierarchy::warmAccess(AccessKind kind, Addr addr)
{
    const bool is_inst = kind == AccessKind::kInstFetch;
    const bool is_store = kind == AccessKind::kStore;
    Cache &l1 = is_inst ? _l1i : _l1d;
    if (l1.access(addr, is_store))
        return;
    // Mirror the drainFills() install policy: a line fetched from
    // memory lands in L3+L2+L1, from the L3 in L2+L1, from the L2 in
    // the L1 only.
    const Addr line = l1.lineAddr(addr);
    if (!_l2.access(addr, false)) {
        if (!_l3.access(addr, false))
            _l3.insert(line, false);
        _l2.insert(line, false);
    }
    l1.insert(line, is_store);
}

AccessResult
Hierarchy::accessMiss(AccessKind kind, Initiator who, Addr addr, Cycle now)
{
    const bool is_inst = kind == AccessKind::kInstFetch;
    Cache &l1 = is_inst ? _l1i : _l1d;

    AccessResult r{};
    // Merge into an in-flight fill of the same L1 line?
    const Cycle due = fillDue(l1.lineAddr(addr), is_inst);
    if (due != kNoFill) {
        r.latency = static_cast<unsigned>(std::max<Cycle>(
            l1.geometry().latency, due > now ? due - now : 0));
        // Attribute to the L1 for stats: the long-latency portion was
        // charged to the access that started the fill.
        r.level = MemLevel::kL1;
        r.mergedInFlight = true;
    } else {
        r = missPath(kind, addr, is_inst, now);
        if (kind == AccessKind::kLoad && _cfg.prefetchDegree > 0) {
            // Next-line prefetch behind the demand miss.
            const unsigned line = l1.geometry().lineBytes;
            for (unsigned d = 1; d <= _cfg.prefetchDegree; ++d) {
                const Addr next =
                    l1.lineAddr(addr) + static_cast<Addr>(d) * line;
                if (l1.contains(next) ||
                    fillDue(l1.lineAddr(next), is_inst) != kNoFill) {
                    continue;
                }
                ++_prefetches;
                // Probe the lower levels (LRU-touching, like a real
                // prefetch) and schedule the fill; no MSHR.
                unsigned lat;
                if (_l2.access(next, false))
                    lat = _cfg.l2.latency;
                else if (_l3.access(next, false))
                    lat = _cfg.l3.latency;
                else
                    lat = _cfg.memoryLatency;
                scheduleFill(now + lat,
                             PendingFill{l1.lineAddr(next), is_inst,
                                         false, MemLevel::kL1});
            }
        }
    }
    if (is_inst)
        _instStats.record(who, r.level, r.latency);
    else
        _stats.record(who, r.level, r.latency);
    return r;
}

void
saveStats(serial::Writer &w, const AccessStats &s)
{
    for (const auto &row : s.counts)
        for (const std::uint64_t c : row)
            w.u64(c);
    for (const auto &row : s.weightedCycles)
        for (const std::uint64_t c : row)
            w.u64(c);
}

void
restoreStats(serial::Reader &r, AccessStats &s)
{
    for (auto &row : s.counts)
        for (std::uint64_t &c : row)
            c = r.u64();
    for (auto &row : s.weightedCycles)
        for (std::uint64_t &c : row)
            c = r.u64();
}

namespace
{

/**
 * The (line, due) pairs of the fills in flight on one side, sorted by
 * line: the encoding of the in-flight line lists, which snapshots
 * carry next to the fills.
 */
template <typename Fills>
std::vector<std::pair<Addr, Cycle>>
inFlightLines(const Fills &fills, bool is_inst)
{
    std::vector<std::pair<Addr, Cycle>> v;
    for (const auto &[due, f] : fills) {
        if (f.isInst == is_inst)
            v.emplace_back(f.l1Line, due);
    }
    std::sort(v.begin(), v.end());
    return v;
}

void
saveInFlight(serial::Writer &w, const std::vector<std::pair<Addr, Cycle>> &v)
{
    w.u64(v.size());
    for (const auto &[line, due] : v) {
        w.u64(line);
        w.u64(due);
    }
}

/** Reads one in-flight list; true when it equals @p expect. */
bool
restoreInFlight(serial::Reader &r,
                const std::vector<std::pair<Addr, Cycle>> &expect)
{
    const std::size_t n = r.seq(16);
    bool same = n == expect.size();
    for (std::size_t i = 0; i < n; ++i) {
        const Addr line = r.u64();
        const Cycle due = r.u64();
        same = same && expect[i] == std::pair<Addr, Cycle>{line, due};
    }
    return same;
}

} // namespace

void
Hierarchy::save(serial::Writer &w) const
{
    _l1i.save(w);
    _l1d.save(w);
    _l2.save(w);
    _l3.save(w);

    w.u64(_pendingFills.size());
    for (const auto &[due, f] : _pendingFills) {
        w.u64(due);
        w.u64(f.l1Line);
        w.boolean(f.isInst);
        w.boolean(f.dirty);
        w.u8(static_cast<std::uint8_t>(f.from));
    }

    saveInFlight(w, inFlightLines(_pendingFills, false));
    saveInFlight(w, inFlightLines(_pendingFills, true));

    // The heap vector verbatim: layout determines pop order among
    // equal completion cycles.
    w.u64(_outstandingLoads.size());
    for (const Cycle c : _outstandingLoads)
        w.u64(c);

    saveStats(w, _stats);
    saveStats(w, _instStats);
    w.u64(_prefetches);
}

void
Hierarchy::restore(serial::Reader &r)
{
    _l1i.restore(r);
    _l1d.restore(r);
    _l2.restore(r);
    _l3.restore(r);

    _pendingFills.clear();
    const std::size_t fills = r.seq(19);
    _pendingFills.reserve(fills);
    for (std::size_t i = 0; i < fills; ++i) {
        const Cycle due = r.u64();
        PendingFill f;
        f.l1Line = r.u64();
        f.isInst = r.boolean();
        f.dirty = r.boolean();
        f.from = static_cast<MemLevel>(r.u8());
        // The stream is already sorted (saved in table order).
        _pendingFills.push_back({due, f});
    }
    _nextFillDue =
        _pendingFills.empty() ? kNoFill : _pendingFills.front().first;

    // The lists are derived state; a stream whose lists disagree with
    // its fills (or names a line twice on one side) is corrupt.
    if (!restoreInFlight(r, inFlightLines(_pendingFills, false)) ||
        !restoreInFlight(r, inFlightLines(_pendingFills, true))) {
        r.fail();
        return;
    }

    _outstandingLoads.clear();
    const std::size_t loads = r.seq(8);
    for (std::size_t i = 0; i < loads; ++i)
        _outstandingLoads.push_back(r.u64());

    restoreStats(r, _stats);
    restoreStats(r, _instStats);
    _prefetches = r.u64();
}

void
Hierarchy::reset()
{
    _l1i.reset();
    _l1d.reset();
    _l2.reset();
    _l3.reset();
    _pendingFills.clear();
    _nextFillDue = kNoFill;
    _outstandingLoads.clear();
    _stats.reset();
    _instStats.reset();
    _prefetches = 0;
}

} // namespace memory
} // namespace ff
