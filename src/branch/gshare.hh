/**
 * @file
 * The 1024-entry gshare direction predictor of Table 1: a global
 * history register XOR-folded with the branch PC indexing a table of
 * 2-bit saturating counters. Branch targets are direct in ffvm, so
 * no BTB is needed; the front end reads targets from the decoded
 * instruction.
 *
 * Predictions are made speculatively at fetch (shifting the predicted
 * direction into the history); each resolved branch calls update()
 * with its Prediction token, which trains the counter it actually
 * used and, on a misprediction, restores the history to the
 * pre-branch value extended with the real outcome — wiping any
 * wrong-path pollution in one step.
 */

#ifndef FF_BRANCH_GSHARE_HH
#define FF_BRANCH_GSHARE_HH

#include <cstdint>
#include <vector>

#include "branch/predictor.hh"
#include "common/types.hh"

namespace ff
{
namespace branch
{

/** gshare direction predictor with 2-bit counters. */
class GsharePredictor : public DirectionPredictor
{
  public:
    /** @param entries table size; must be a power of two. */
    explicit GsharePredictor(unsigned entries = 1024);

    /** Predicts the branch at @p pc; shifts speculative history. */
    void predictInto(Addr pc, Prediction &p) override;

    /**
     * Trains on the resolved outcome; on a misprediction, restores
     * the global history to the branch's pre-prediction value
     * extended with the actual direction. Squashed (wrong-path)
     * predictions must never be updated.
     */
    void update(const Prediction &p, bool taken) override;

    std::uint64_t history() const { return _history; }

    void reset() override;

    void save(serial::Writer &w) const override;
    void restore(serial::Reader &r) override;

  private:
    std::vector<std::uint8_t> _table; ///< 2-bit counters
    std::uint64_t _history = 0;
    std::uint64_t _mask;
};

} // namespace branch
} // namespace ff

#endif // FF_BRANCH_GSHARE_HH
