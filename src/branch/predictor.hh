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
    std::uint64_t lookups = 0;     ///< predictions made
    std::uint64_t mispredicts = 0; ///< resolutions against the guess

    /** Zeroes both counters. */
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
 * Components unused by a given predictor stay zero. The members are
 * ordered widest first, so the token is 24 bytes with no padding: an
 * assignment copies 16 and 8 bytes, never two overlapping 16-byte
 * halves, which a load cannot take from the stores that wrote them.
 */
struct Prediction
{
    std::uint64_t historyBefore = 0;  ///< history before this branch
    std::uint32_t index = 0;          ///< primary counter consulted
    std::uint32_t index2 = 0;         ///< secondary counter (tournament)
    std::uint32_t chooserIndex = 0;   ///< chooser entry (tournament)
    bool taken = false;               ///< the predicted direction
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

/** Reads back what savePrediction() wrote into @p p. */
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
    /** Predictors are owned and destroyed through this interface. */
    virtual ~DirectionPredictor() = default;

    /**
     * Predicts the branch at @p pc into @p p, writing every member;
     * shifts speculative state. The front end passes the token's home
     * in its fetched-group slot, so no token is staged on the stack
     * and copied there.
     */
    virtual void predictInto(Addr pc, Prediction &p) = 0;

    /** predictInto() on a fresh token, returned by value. */
    Prediction
    predict(Addr pc)
    {
        Prediction p;
        predictInto(pc, p);
        return p;
    }

    /**
     * Trains on the resolved outcome and repairs speculative state
     * on a misprediction. Squashed (wrong-path) predictions must
     * never be updated.
     */
    virtual void update(const Prediction &p, bool taken) = 0;

    /** The lookup and misprediction counters. */
    virtual const PredictorStats &stats() const { return _stats; }
    /** Returns the tables, speculative state and counters to a new
     *  predictor's. */
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

    /** Exact inverse of save(); panics by default, as save() does. */
    virtual void
    restore(serial::Reader &r)
    {
        (void)r;
        ff_panic("predictor does not support snapshots");
    }

  protected:
    PredictorStats _stats; ///< kept by every predictor's predictInto()
};

/** Which predictor to build (CoreConfig::predictorKind). */
enum class PredictorKind
{
    kGshare,     ///< Table 1's 1024-entry gshare
    kBimodal,    ///< PC-indexed 2-bit counters, no history
    kTournament, ///< bimodal + gshare + PC-indexed chooser
};

/** The lower-case name of @p k: "gshare", "bimodal" or "tournament". */
const char *predictorKindName(PredictorKind k);

/** Builds a predictor of @p kind with @p entries counters/table. */
std::unique_ptr<DirectionPredictor> makePredictor(PredictorKind kind,
                                                  unsigned entries);

} // namespace branch
} // namespace ff

#endif // FF_BRANCH_PREDICTOR_HH
