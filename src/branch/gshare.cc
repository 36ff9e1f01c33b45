#include "branch/gshare.hh"

#include "common/logging.hh"

namespace ff
{
namespace branch
{

GsharePredictor::GsharePredictor(unsigned entries)
    : _table(entries, 1), // weakly not-taken
      _mask(entries - 1)
{
    ff_fatal_if(entries == 0 || (entries & (entries - 1)) != 0,
                "gshare table size must be a power of two");
}

void
GsharePredictor::predictInto(Addr pc, Prediction &p)
{
    ++_stats.lookups;
    p = Prediction{};
    p.historyBefore = _history;
    // Instruction addresses step by 16 bytes; drop the low bits
    // before folding in history.
    p.index = static_cast<std::uint32_t>(((pc >> 4) ^ _history) & _mask);
    p.taken = _table[p.index] >= 2;
    _history = ((_history << 1) | (p.taken ? 1 : 0)) & _mask;
}

void
GsharePredictor::update(const Prediction &p, bool taken)
{
    std::uint8_t &ctr = _table[p.index];
    if (taken) {
        if (ctr < 3)
            ++ctr;
    } else {
        if (ctr > 0)
            --ctr;
    }
    if (taken != p.taken) {
        ++_stats.mispredicts;
        _history = ((p.historyBefore << 1) | (taken ? 1 : 0)) & _mask;
    }
}

void
GsharePredictor::reset()
{
    for (auto &c : _table)
        c = 1;
    _history = 0;
    _stats.reset();
}

void
GsharePredictor::save(serial::Writer &w) const
{
    w.u64(_table.size());
    w.bytes(_table.data(), _table.size());
    w.u64(_history);
    saveStats(w, _stats);
}

void
GsharePredictor::restore(serial::Reader &r)
{
    if (r.seq(1) != _table.size()) {
        r.fail();
        return;
    }
    r.bytes(_table.data(), _table.size());
    _history = r.u64();
    restoreStats(r, _stats);
}

} // namespace branch
} // namespace ff
