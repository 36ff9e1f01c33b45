/**
 * @file
 * The flea-flicker two-pass pipeline (Sections 3.1–3.6): an advance
 * A-pipe that never stalls on unready operands (deferring such
 * instructions and their dependence successors through the coupling
 * queue) and an architectural backup B-pipe that merges pre-executed
 * results, scoreboards dangling (in-flight) ones, executes deferred
 * instructions, detects store conflicts with a DynID-indexed ALAT,
 * resolves deferred branch mispredictions (B-DET), and feeds
 * committed values back to the A-file over a latency-configurable
 * path. TwoPassCpu itself is a thin composition over the CpuModel
 * kernel: the dense per-cycle state (A-file, B-file, scoreboard,
 * coupling queue) lives in CpuModel's MachineState; this class adds
 * the two-pass-only structures, wires everything into a PipeContext,
 * and sequences the APipe / BPipe / FeedbackPath stage units each
 * tick.
 */

#ifndef FF_CPU_TWOPASS_TWOPASS_CPU_HH
#define FF_CPU_TWOPASS_TWOPASS_CPU_HH

#include "cpu/cpu.hh"
#include "cpu/scoreboard.hh"
#include "cpu/twopass/apipe.hh"
#include "cpu/twopass/bpipe.hh"
#include "cpu/twopass/feedback.hh"
#include "cpu/twopass/pipe_context.hh"
#include "memory/alat.hh"
#include "memory/store_buffer.hh"

namespace ff
{
namespace cpu
{

// TwoPassStats lives in cpu/model_stats.hh (below cpu.hh) so the
// abstract model can expose the collectStats() hook.

/** The two-pass pipelined core. */
class TwoPassCpu : public CpuModel
{
  public:
    /** Builds the two-pass core over @p prog (which must outlive it). */
    TwoPassCpu(const isa::Program &prog, const CoreConfig &cfg);

    RunResult
    run(std::uint64_t max_cycles) final
    {
        return runLoop(
            [this](Cycle now, RunResult &res) { return tick(now, res); },
            [this](Cycle now, Cycle limit) {
                return skipQuiet(now, limit);
            },
            max_cycles);
    }

    /** The two-pass counters. */
    const TwoPassStats &stats() const { return _stats; }

    void
    collectStats(ModelStats &out) const override
    {
        out.twopass = _stats;
        out.alat = _alat.stats();
    }

    /** Adds the two-pass structures to the common occupancy sample. */
    OccupancySample
    occupancy(Cycle now) const override
    {
        OccupancySample s = CpuModel::occupancy(now);
        s.cqDepth = static_cast<unsigned>(_ms.cq.size());
        s.pendingFeedback = static_cast<unsigned>(_feedback.size());
        return s;
    }

  protected:
    void saveModelState(serial::Writer &w) const override;
    void restoreModelState(serial::Reader &r) override;

    /** Architectural warp replaced the B-file; adopt it wholesale. */
    void warpModelState() override { _ms.afile.syncFromArch(_ms.regs); }

  private:
    CycleClass tick(Cycle now, RunResult &res);

    /**
     * The run loop's skip hook after a stalled tick at @p now: the
     * first cycle, at most @p limit, at which a stage can act — the
     * earliest of the B-pipe's and the A-pipe's held verdicts, the
     * next feedback update and the next self-check — having charged
     * the per-cycle counters for every cycle before it.
     */
    Cycle skipQuiet(Cycle now, Cycle limit);

    /**
     * Debug invariant (cfg.selfCheckInterval): every valid,
     * non-speculative A-file register must equal its B-file copy —
     * the structural statement of "the B-pipe trusts the A-pipe".
     */
    void checkAFileCoherence(Cycle now) const;

    memory::StoreBuffer _sbuf;
    memory::Alat _alat;
    TwoPassStats _stats;

    // The context must follow every structure it references; the
    // stage units must follow the context (and FeedbackPath).
    PipeContext _ctx;
    FeedbackPath _feedback;
    APipe _apipe;
    BPipe _bpipe;
};

} // namespace cpu
} // namespace ff

#endif // FF_CPU_TWOPASS_TWOPASS_CPU_HH
