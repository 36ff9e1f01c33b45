#include "branch/bimodal.hh"

#include "common/logging.hh"

namespace ff
{
namespace branch
{

// ---------------------------------------------------------------------
// Bimodal
// ---------------------------------------------------------------------

BimodalPredictor::BimodalPredictor(unsigned entries)
    : _table(entries, 1), // weakly not-taken
      _mask(entries - 1)
{
    ff_fatal_if(entries == 0 || (entries & (entries - 1)) != 0,
                "bimodal table size must be a power of two");
}

void
BimodalPredictor::predictInto(Addr pc, Prediction &p)
{
    ++_stats.lookups;
    p = Prediction{};
    p.index = static_cast<std::uint32_t>((pc >> 4) & _mask);
    p.taken = _table[p.index] >= 2;
}

void
BimodalPredictor::update(const Prediction &p, bool taken)
{
    std::uint8_t &ctr = _table[p.index];
    if (taken) {
        if (ctr < 3)
            ++ctr;
    } else {
        if (ctr > 0)
            --ctr;
    }
    if (taken != p.taken)
        ++_stats.mispredicts;
}

void
BimodalPredictor::reset()
{
    for (auto &c : _table)
        c = 1;
    _stats.reset();
}

void
BimodalPredictor::save(serial::Writer &w) const
{
    w.u64(_table.size());
    w.bytes(_table.data(), _table.size());
    saveStats(w, _stats);
}

void
BimodalPredictor::restore(serial::Reader &r)
{
    if (r.seq(1) != _table.size()) {
        r.fail();
        return;
    }
    r.bytes(_table.data(), _table.size());
    restoreStats(r, _stats);
}

// ---------------------------------------------------------------------
// Tournament
// ---------------------------------------------------------------------

TournamentPredictor::TournamentPredictor(unsigned entries)
    : _gshare(entries),
      _bimodal(entries),
      _chooser(entries, 2), // weakly favour gshare
      _mask(entries - 1)
{
}

void
TournamentPredictor::predictInto(Addr pc, Prediction &p)
{
    ++_stats.lookups;
    const Prediction g = _gshare.predict(pc);
    const Prediction b = _bimodal.predict(pc);

    p = Prediction{};
    p.chooserIndex = static_cast<std::uint32_t>((pc >> 4) & _mask);
    p.usedComponent2 = _chooser[p.chooserIndex] < 2; // 2 = bimodal
    // Primary slot carries gshare's state, secondary bimodal's.
    p.index = g.index;
    p.historyBefore = g.historyBefore;
    p.component1Taken = g.taken;
    p.index2 = b.index;
    p.component2Taken = b.taken;
    p.taken = p.usedComponent2 ? b.taken : g.taken;
}

void
TournamentPredictor::update(const Prediction &p, bool taken)
{
    // Rebuild each component's token and train it (this also
    // repairs gshare's speculative history on ITS mispredictions).
    Prediction g;
    g.index = p.index;
    g.historyBefore = p.historyBefore;
    g.taken = p.component1Taken;
    _gshare.update(g, taken);

    Prediction b;
    b.index = p.index2;
    b.taken = p.component2Taken;
    _bimodal.update(b, taken);

    // Chooser trains toward whichever component was right (when they
    // disagreed).
    const bool g_right = g.taken == taken;
    const bool b_right = b.taken == taken;
    std::uint8_t &ch = _chooser[p.chooserIndex];
    if (g_right && !b_right) {
        if (ch < 3)
            ++ch;
    } else if (b_right && !g_right) {
        if (ch > 0)
            --ch;
    }
    if (taken != p.taken)
        ++_stats.mispredicts;
}

void
TournamentPredictor::reset()
{
    _gshare.reset();
    _bimodal.reset();
    for (auto &c : _chooser)
        c = 2;
    _stats.reset();
}

void
TournamentPredictor::save(serial::Writer &w) const
{
    _gshare.save(w);
    _bimodal.save(w);
    w.u64(_chooser.size());
    w.bytes(_chooser.data(), _chooser.size());
    saveStats(w, _stats);
}

void
TournamentPredictor::restore(serial::Reader &r)
{
    _gshare.restore(r);
    _bimodal.restore(r);
    if (r.seq(1) != _chooser.size()) {
        r.fail();
        return;
    }
    r.bytes(_chooser.data(), _chooser.size());
    restoreStats(r, _stats);
}

// ---------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------

const char *
predictorKindName(PredictorKind k)
{
    switch (k) {
      case PredictorKind::kGshare: return "gshare";
      case PredictorKind::kBimodal: return "bimodal";
      case PredictorKind::kTournament: return "tournament";
    }
    return "?";
}

std::unique_ptr<DirectionPredictor>
makePredictor(PredictorKind kind, unsigned entries)
{
    switch (kind) {
      case PredictorKind::kGshare:
        return std::make_unique<GsharePredictor>(entries);
      case PredictorKind::kBimodal:
        return std::make_unique<BimodalPredictor>(entries);
      case PredictorKind::kTournament:
        return std::make_unique<TournamentPredictor>(entries);
    }
    ff_panic("unknown predictor kind");
}

} // namespace branch
} // namespace ff
