/**
 * @file
 * The baseline in-order EPIC core (Figure 2(a)): issue groups stall
 * atomically in the dependence-check stage whenever any contained
 * instruction's operands are not ready, exactly the behaviour whose
 * stall cycles the two-pass design attacks. The register file and
 * scoreboard live in CpuModel's MachineState; this class adds only
 * the issue loop and its counters. The run-ahead core is this core
 * plus its run-ahead mode, so it reuses the issue stage as is.
 */

#ifndef FF_CPU_BASELINE_BASELINE_CPU_HH
#define FF_CPU_BASELINE_BASELINE_CPU_HH

#include <algorithm>
#include <vector>

#include "cpu/cpu.hh"
#include "cpu/scoreboard.hh"

namespace ff
{
namespace cpu
{

/** In-order, stall-on-use EPIC pipeline. */
class BaselineCpu : public CpuModel
{
  public:
    /** Builds the baseline core over @p prog (which must outlive it). */
    BaselineCpu(const isa::Program &prog, const CoreConfig &cfg)
        : BaselineCpu(prog, cfg, memory::Initiator::kBaseline)
    {
    }

    RunResult
    run(std::uint64_t max_cycles) override
    {
        return runLoop(
            [this](Cycle now, RunResult &res) {
                return tryIssue(now, res);
            },
            [this](Cycle, Cycle limit) {
                return std::min(_heldUntil, limit);
            },
            max_cycles);
    }

    /** The baseline issue counters. */
    const BaselineStats &stats() const { return _stats; }

    void
    collectStats(ModelStats &out) const override
    {
        out.baseline = _stats;
    }

  protected:
    /**
     * Builds the core with its loads and stores tagged @p who: the
     * run-ahead core passes its own initiator.
     */
    BaselineCpu(const isa::Program &prog, const CoreConfig &cfg,
                memory::Initiator who)
        : CpuModel(prog, cfg, who), _ops(cfg.limits.issueWidth)
    {
    }

    void saveModelState(serial::Writer &w) const override;
    void restoreModelState(serial::Reader &r) override;

    /**
     * Attempts to issue the head issue group at @p now.
     * @return the cycle's classification; retires the group when
     *         kUnstalled
     */
    CycleClass tryIssue(Cycle now, RunResult &res);

  private:
    /** One issuing slot's operands, read before any slot writes. */
    struct SlotOperands
    {
        bool qpred;
        RegVal s1;
        RegVal s2;
    };

    BaselineStats _stats;

    /**
     * The operand snapshot of the issuing group, one entry per slot.
     * Sized once to cfg.limits.issueWidth, which the constructor has
     * checked every group against, so issuing allocates nothing.
     */
    std::vector<SlotOperands> _ops;

    /**
     * Set by every stalled tryIssue(): the cycle before which that
     * verdict holds while nothing else changes. It is the blocking
     * register's ready cycle for a dependence stall, and kNeverCycle
     * for a front-end or MSHR stall, which only the front end's or
     * the hierarchy's next event can lift.
     */
    Cycle _heldUntil = 0;
};

} // namespace cpu
} // namespace ff

#endif // FF_CPU_BASELINE_BASELINE_CPU_HH
