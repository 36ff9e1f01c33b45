/**
 * @file
 * The branch direction-predictor interface and factory. Table 1's
 * machine uses gshare; bimodal and tournament (21264-style) designs
 * are provided for the predictor-quality ablation — the two-pass
 * B-DET misprediction penalty makes the design more sensitive to
 * predictor quality than the baseline, which this lets us measure.
 */

#ifndef FF_BRANCH_PREDICTOR_HH
#define FF_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <memory>

#include "common/logging.hh"
#include "common/serialize.hh"
#include "common/types.hh"

namespace ff
{
namespace branch
{

/** Prediction statistics. */
struct PredictorStats
{
    std::uint64_t lookups = 0;
    std::uint64_t mispredicts = 0;

    void reset() { *this = PredictorStats(); }
};

/**
 * Writes both PredictorStats counters to @p w: the one encoding
 * shared by predictor snapshots and result-cache entries.
 */
inline void
saveStats(serial::Writer &w, const PredictorStats &s)
{
    w.u64(s.lookups);
    w.u64(s.mispredicts);
}

/** Reads back what saveStats() wrote for a PredictorStats. */
inline void
restoreStats(serial::Reader &r, PredictorStats &s)
{
    s.lookups = r.u64();
    s.mispredicts = r.u64();
}

/**
 * Token returned at predict time and surrendered at resolve time.
 * Components unused by a given predictor stay zero.
 */
struct Prediction
{
    bool taken = false;
    std::uint32_t index = 0;          ///< primary counter consulted
    std::uint64_t historyBefore = 0;  ///< history before this branch
    std::uint32_t index2 = 0;         ///< secondary counter (tournament)
    std::uint32_t chooserIndex = 0;   ///< chooser entry (tournament)
    bool component1Taken = false;     ///< primary's own prediction
    bool component2Taken = false;     ///< secondary's prediction
    bool usedComponent2 = false;      ///< chooser picked the secondary
};

/** Snapshot encoding of a Prediction token (all components). */
inline void
savePrediction(serial::Writer &w, const Prediction &p)
{
    w.boolean(p.taken);
    w.u32(p.index);
    w.u64(p.historyBefore);
    w.u32(p.index2);
    w.u32(p.chooserIndex);
    w.boolean(p.component1Taken);
    w.boolean(p.component2Taken);
    w.boolean(p.usedComponent2);
}

inline void
restorePrediction(serial::Reader &r, Prediction &p)
{
    p.taken = r.boolean();
    p.index = r.u32();
    p.historyBefore = r.u64();
    p.index2 = r.u32();
    p.chooserIndex = r.u32();
    p.component1Taken = r.boolean();
    p.component2Taken = r.boolean();
    p.usedComponent2 = r.boolean();
}

/** Abstract direction predictor. */
class DirectionPredictor
{
  public:
    virtual ~DirectionPredictor() = default;

    /** Predicts the branch at @p pc; shifts speculative state. */
    virtual Prediction predict(Addr pc) = 0;

    /**
     * Trains on the resolved outcome and repairs speculative state
     * on a misprediction. Squashed (wrong-path) predictions must
     * never be updated.
     */
    virtual void update(const Prediction &p, bool taken) = 0;

    virtual const PredictorStats &stats() const { return _stats; }
    virtual void reset() = 0;

    /**
     * Snapshot hooks: counter tables, speculative history and stats.
     * The bundled predictors all implement them; the default panics
     * so a future predictor can't silently snapshot partial state.
     */
    virtual void
    save(serial::Writer &w) const
    {
        (void)w;
        ff_panic("predictor does not support snapshots");
    }

    virtual void
    restore(serial::Reader &r)
    {
        (void)r;
        ff_panic("predictor does not support snapshots");
    }

  protected:
    PredictorStats _stats;
};

/** Which predictor to build (CoreConfig::predictorKind). */
enum class PredictorKind
{
    kGshare,     ///< Table 1's 1024-entry gshare
    kBimodal,    ///< PC-indexed 2-bit counters, no history
    kTournament, ///< bimodal + gshare + PC-indexed chooser
};

const char *predictorKindName(PredictorKind k);

/** Builds a predictor of @p kind with @p entries counters/table. */
std::unique_ptr<DirectionPredictor> makePredictor(PredictorKind kind,
                                                  unsigned entries);

} // namespace branch
} // namespace ff

#endif // FF_BRANCH_PREDICTOR_HH
