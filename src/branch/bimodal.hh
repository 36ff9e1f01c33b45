/**
 * @file
 * Bimodal (PC-indexed, history-free) and tournament (21264-style)
 * direction predictors, for the predictor-quality ablation.
 */

#ifndef FF_BRANCH_BIMODAL_HH
#define FF_BRANCH_BIMODAL_HH

#include <vector>

#include "branch/gshare.hh"
#include "branch/predictor.hh"

namespace ff
{
namespace branch
{

/** Classic bimodal predictor: a 2-bit counter per (hashed) PC. */
class BimodalPredictor : public DirectionPredictor
{
  public:
    explicit BimodalPredictor(unsigned entries = 1024);

    void predictInto(Addr pc, Prediction &p) override;
    void update(const Prediction &p, bool taken) override;
    void reset() override;

    void save(serial::Writer &w) const override;
    void restore(serial::Reader &r) override;

  private:
    std::vector<std::uint8_t> _table;
    std::uint64_t _mask;
};

/**
 * Tournament predictor: bimodal and gshare components with a
 * PC-indexed 2-bit chooser (0-1 favour bimodal, 2-3 favour gshare),
 * after the Alpha 21264's local/global arrangement.
 */
class TournamentPredictor : public DirectionPredictor
{
  public:
    explicit TournamentPredictor(unsigned entries = 1024);

    void predictInto(Addr pc, Prediction &p) override;
    void update(const Prediction &p, bool taken) override;
    void reset() override;

    void save(serial::Writer &w) const override;
    void restore(serial::Reader &r) override;

  private:
    GsharePredictor _gshare;
    BimodalPredictor _bimodal;
    std::vector<std::uint8_t> _chooser;
    std::uint64_t _mask;
};

} // namespace branch
} // namespace ff

#endif // FF_BRANCH_BIMODAL_HH
