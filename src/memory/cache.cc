#include "memory/cache.hh"

#include "common/logging.hh"

namespace ff
{
namespace memory
{

Cache::Cache(std::string name, const CacheGeometry &geom)
    : _name(std::move(name)), _geom(geom)
{
    ff_fatal_if(geom.lineBytes == 0 ||
                    (geom.lineBytes & (geom.lineBytes - 1)) != 0,
                _name, ": line size must be a power of two");
    ff_fatal_if(geom.assoc == 0, _name, ": zero associativity");
    ff_fatal_if(geom.sizeBytes % (geom.lineBytes * geom.assoc) != 0,
                _name, ": size not divisible by line*assoc");
    _numSets = geom.sizeBytes / (geom.lineBytes * geom.assoc);
    ff_fatal_if(_numSets == 0, _name, ": zero sets");
    _lines.assign(_numSets * geom.assoc, Line());

    while ((static_cast<Addr>(1) << _lineShift) < geom.lineBytes)
        ++_lineShift;
    _pow2Sets = (_numSets & (_numSets - 1)) == 0;
    if (_pow2Sets) {
        while ((static_cast<std::size_t>(1) << _setShift) < _numSets)
            ++_setShift;
        _setMask = static_cast<Addr>(_numSets) - 1;
    }
}

bool
Cache::contains(Addr a) const
{
    const Line *set = &_lines[setIndex(a) * _geom.assoc];
    const Addr tag = tagOf(a);
    for (unsigned w = 0; w < _geom.assoc; ++w) {
        if (set[w].valid && set[w].tag == tag)
            return true;
    }
    return false;
}

Eviction
Cache::insert(Addr a, bool dirty)
{
    Line *set = &_lines[setIndex(a) * _geom.assoc];
    const Addr tag = tagOf(a);
    // Already present (e.g. racing fills): refresh only.
    for (unsigned w = 0; w < _geom.assoc; ++w) {
        if (set[w].valid && set[w].tag == tag) {
            set[w].lruStamp = ++_clock;
            set[w].dirty = set[w].dirty || dirty;
            return {};
        }
    }
    // Choose an invalid way, else the LRU way.
    unsigned victim = 0;
    bool found_invalid = false;
    std::uint64_t oldest = ~0ULL;
    for (unsigned w = 0; w < _geom.assoc; ++w) {
        if (!set[w].valid) {
            victim = w;
            found_invalid = true;
            break;
        }
        if (set[w].lruStamp < oldest) {
            oldest = set[w].lruStamp;
            victim = w;
        }
    }
    Eviction ev;
    if (!found_invalid) {
        ev.valid = true;
        ev.dirty = set[victim].dirty;
        // Reconstruct the victim's line address.
        ev.lineAddr = (set[victim].tag * _numSets + setIndex(a)) *
                      _geom.lineBytes;
        ++_evictions;
        if (ev.dirty)
            ++_writebacks;
    }
    set[victim] = {true, dirty, tag, ++_clock};
    return ev;
}

void
Cache::invalidate(Addr a)
{
    Line *set = &_lines[setIndex(a) * _geom.assoc];
    const Addr tag = tagOf(a);
    for (unsigned w = 0; w < _geom.assoc; ++w) {
        if (set[w].valid && set[w].tag == tag) {
            set[w].valid = false;
            return;
        }
    }
}

void
Cache::save(serial::Writer &w) const
{
    w.u64(_geom.sizeBytes);
    w.u32(_geom.assoc);
    w.u32(_geom.lineBytes);
    w.u32(_geom.latency);
    for (const Line &l : _lines) {
        w.boolean(l.valid);
        w.boolean(l.dirty);
        w.u64(l.tag);
        w.u64(l.lruStamp);
    }
    w.u64(_clock);
    w.u64(_hits);
    w.u64(_misses);
    w.u64(_evictions);
    w.u64(_writebacks);
}

void
Cache::restore(serial::Reader &r)
{
    if (r.u64() != _geom.sizeBytes || r.u32() != _geom.assoc ||
        r.u32() != _geom.lineBytes || r.u32() != _geom.latency) {
        r.fail();
        return;
    }
    for (Line &l : _lines) {
        l.valid = r.boolean();
        l.dirty = r.boolean();
        l.tag = r.u64();
        l.lruStamp = r.u64();
    }
    _clock = r.u64();
    _hits = r.u64();
    _misses = r.u64();
    _evictions = r.u64();
    _writebacks = r.u64();
}

void
Cache::reset()
{
    for (auto &l : _lines)
        l = Line();
    _clock = 0;
    _hits = _misses = _evictions = _writebacks = 0;
}

} // namespace memory
} // namespace ff
