/**
 * @file
 * A checkpoint-based run-ahead in-order core in the style the paper
 * synthesizes from Dundas and Mutlu (Sec. 2): when the issue stage
 * blocks on a load, the machine checkpoints register state and keeps
 * executing speculatively — propagating INV marks through
 * miss-dependent results, prefetching down the instruction stream,
 * and buffering stores in a discardable overlay — until the blocking
 * load returns, then restores the checkpoint and resumes normally,
 * discarding all run-ahead results.
 *
 * Normal mode is the baseline core: RunaheadCpu derives from
 * BaselineCpu and reuses its issue stage, tagging accesses as
 * run-ahead's own. The architectural file/scoreboard and the
 * run-ahead shadow copies (checkpoint file, INV bitset, shadow
 * scoreboard) all live in CpuModel's MachineState; checkpointing
 * copies only the slots dirty since the last episode instead of the
 * whole file.
 *
 * This is the comparison point against which two-pass pipelining's
 * retention of pre-executed work is evaluated (bench_runahead).
 */

#ifndef FF_CPU_RUNAHEAD_RUNAHEAD_CPU_HH
#define FF_CPU_RUNAHEAD_RUNAHEAD_CPU_HH

#include <map>

#include "cpu/baseline/baseline_cpu.hh"

namespace ff
{
namespace cpu
{

// RunaheadStats lives in cpu/model_stats.hh (below cpu.hh) so the
// abstract model can expose the collectStats() hook.

/** In-order core with run-ahead pre-execution under load stalls. */
class RunaheadCpu : public BaselineCpu
{
  public:
    /** Builds the run-ahead core over @p prog (which must outlive it). */
    RunaheadCpu(const isa::Program &prog, const CoreConfig &cfg)
        : BaselineCpu(prog, cfg, memory::Initiator::kRunahead)
    {
    }

    /**
     * Steps every cycle: the run-ahead core reports no horizon, since
     * its stall streak counts the load-stall cycles a skip would jump
     * (DESIGN.md §9).
     */
    RunResult
    run(std::uint64_t max_cycles) final
    {
        return runLoop(
            [this](Cycle now, RunResult &res) { return tick(now, res); },
            [](Cycle now, Cycle) { return now + 1; }, max_cycles);
    }

    /** The run-ahead episode counters. */
    const RunaheadStats &runaheadStats() const { return _raStats; }

    /** The baseline issue counters, then the run-ahead ones. */
    void
    collectStats(ModelStats &out) const override
    {
        BaselineCpu::collectStats(out);
        out.runahead = _raStats;
    }

  protected:
    void saveModelState(serial::Writer &w) const override;
    void restoreModelState(serial::Reader &r) override;

  private:
    /** Normal-mode issue, or one cycle of a run-ahead episode. */
    CycleClass tick(Cycle now, RunResult &res);

    /** Enters run-ahead: checkpoint and mark pending regs INV. */
    void enterRunahead(Cycle now, Cycle exit_at);
    /** Exits run-ahead: restore the checkpoint and refetch. */
    void exitRunahead(Cycle now);
    /** One cycle of run-ahead pre-execution. */
    void runaheadStep(Cycle now);

    RunaheadStats _raStats;

    // ---- run-ahead mode state ---------------------------------------
    bool _inRunahead = false;
    Cycle _raExitAt = 0;
    InstIdx _raResumePc = 0;
    std::map<Addr, std::uint8_t> _raStoreOverlay;

    /** Consecutive load-stall cycles in normal mode (entry trigger). */
    unsigned _stallStreak = 0;
};

} // namespace cpu
} // namespace ff

#endif // FF_CPU_RUNAHEAD_RUNAHEAD_CPU_HH
