/**
 * @file
 * Sampled simulation: snapshot-interval sampling with parallel
 * detailed replay and statistical stitching (SMARTS-style systematic
 * sampling adapted to this simulator's checkpoint machinery).
 *
 * A sampled run replaces one long detailed simulation with three
 * phases:
 *
 *  1. Checkpoint pass — the untimed functional reference executes the
 *     whole program once, dropping architectural checkpoints
 *     (register file + memory + resume PC) every intervalCycles
 *     retired slots. This pass is 1-2 orders of magnitude faster than
 *     detailed simulation and also yields the exact dynamic
 *     instruction count and final architectural fingerprints.
 *  2. Parallel detailed replay — interval 0 re-runs stratum 0 from
 *     the cold entry state, measuring the startup transient exactly;
 *     for every other checkpoint, a fresh timed model is warped to
 *     the checkpoint's architectural state, its caches and predictor
 *     are functionally warmed by replaying the checkpoint's recorded
 *     access history (see cpu/warm_history.hh), run for warmupCycles
 *     of detailed warm-up to fill the pipeline, and then measured
 *     for detailCycles retired slots. Intervals are independent, so
 *     sim::runBatch makes each replay its own unit on the thread pool.
 *  3. Stitching — the estimate is the exact prefix plus the mean
 *     per-window CPI times the remaining instructions, with
 *     standard-error and 95%-confidence fields; cycle-class
 *     accounting is the exact prefix plus the measured windows' mix
 *     scaled to the estimated steady-state length.
 *
 * The estimate is carried on SimOutcome::sampled, keyed separately in
 * the result cache (the sampling parameters join the key), and
 * exported in the versioned metrics JSON under "sampled".
 */

#ifndef FF_SIM_SAMPLED_HH
#define FF_SIM_SAMPLED_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/harness.hh"

namespace ff
{
namespace sim
{

/**
 * Sampling configuration. intervalCycles == 0 (the default) means
 * detailed simulation; any other value enables sampling. Fields left
 * at 0 are derived by normalized(): detail = interval/8 (min 1),
 * warm-up = detail (min 512), maxIntervals = 64.
 *
 * Units: intervalCycles is the checkpoint spacing in *retired
 * instruction slots* of the functional pass (the pass has no clock; a
 * slot is its closest cycle proxy), and detailCycles is the measured
 * window length, also in retired slots — the window is a fixed-size
 * slice of the instruction axis, which keeps the per-window CPI
 * denominator constant (see stitchSampled()). Only warmupCycles is in
 * *detailed-model cycles*: warm-up flushes time-domain transients
 * (pipeline fill, in-flight misses), so its natural budget is time.
 */
struct SampledOptions
{
    std::uint64_t intervalCycles = 0; ///< checkpoint spacing (slots)
    std::uint64_t detailCycles = 0;   ///< measured window (slots)
    std::uint64_t warmupCycles = 0;   ///< detailed warm-up (cycles)
    std::uint64_t maxIntervals = 0;   ///< checkpoint count cap

    bool enabled() const { return intervalCycles != 0; }

    /**
     * Fills derived defaults (see the class comment) and floors
     * maxIntervals at 2 — a single window has no variance estimate.
     * Result-cache keys and plan sharing both use the normalized
     * form, so equivalent spellings coincide.
     */
    SampledOptions normalized() const;
};

/**
 * Parses the value @p text of the sampling option @p flag,
 * INTERVAL[:DETAIL[:WARMUP]]: one to three fields, each a positive
 * integer that fits 64 bits; omitted fields are left for
 * normalized() to derive. Anything else is fatal, naming @p flag.
 */
SampledOptions parseSampleSpec(const std::string &flag,
                               const std::string &text);

/** The statistical result of a sampled run (SimOutcome::sampled). */
struct SampledEstimate
{
    SampledOptions options;  ///< normalized sampling configuration

    std::uint64_t spacing = 0; ///< final stratum width after thinning
    std::uint64_t intervalsTotal = 0;    ///< checkpoints replayed
    std::uint64_t intervalsMeasured = 0; ///< full steady-state windows
    std::uint64_t sampledCycles = 0; ///< detailed cycles measured
    std::uint64_t sampledInsts = 0;  ///< slots retired in the windows
    std::uint64_t totalInsts = 0;    ///< exact (functional pass)
    /**
     * The exact cold-start prefix (interval 0): stratum 0 measured
     * detailed from the entry state, so the startup transient enters
     * the estimate at its true cost instead of being point-sampled.
     */
    std::uint64_t prefixCycles = 0;
    std::uint64_t prefixInsts = 0;

    /**
     * The estimator works in CPI space (checkpoints are instruction-
     * spaced, so mean per-window CPI is the unbiased steady-state
     * statistic; see stitchSampled()): estimatedCycles is the exact
     * prefix plus mean CPI times the remaining instructions, ipcMean
     * is totalInsts / estimatedCycles, and the spread fields carry
     * the sampled part's error mapped to IPC space through the
     * delta method.
     */
    double ipcMean = 0.0;   ///< totalInsts / estimatedCycles
    double ipcStdDev = 0.0; ///< sample stddev, IPC space
    double ipcStdErr = 0.0; ///< stddev / sqrt(n), IPC space
    double ipcCi95 = 0.0;   ///< +/- 1.96 * stderr
    double estimatedCycles = 0.0; ///< prefix + cpiMean * rest
};

/** One architectural checkpoint of the functional pass. */
struct SampledCheckpoint
{
    InstIdx pc = 0; ///< issue-group leader to resume at
    std::uint64_t instsBefore = 0; ///< slots retired before @p pc
    cpu::RegFile regs;
    /**
     * The complete memory image at this point. SparseMemory pages
     * are copy-on-write, so this costs a page-table copy when the
     * checkpoint is taken and the functional pass only materializes
     * the pages it dirties afterwards — the plan stays O(footprint +
     * pages written), not O(footprint x checkpoints).
     */
    memory::SparseMemory mem;
    /**
     * Recent fetch/data/branch event history ending at this point,
     * frozen flat (see cpu::WarmSnapshot) and replayed untimed into
     * the replay model's caches and predictor (functional warming).
     * Raw addresses and directions only, so the history — like the
     * rest of the checkpoint — is valid for every model kind and
     * machine configuration.
     */
    cpu::WarmSnapshot warm;
};

/**
 * Everything the replay phase needs, produced by one functional pass.
 * Depends only on (program, sampling options) — never on the model
 * kind or machine configuration — so one plan is shared read-only by
 * every model replaying the same program.
 */
struct SampledPlan
{
    SampledOptions opts;        ///< normalized
    std::uint64_t spacing = 0;  ///< final spacing after thinning
    cpu::FunctionalResult functional; ///< exact whole-run counts
    std::uint64_t regFingerprint = 0; ///< exact final arch state
    std::uint64_t memFingerprint = 0;
    std::uint64_t checksum = 0;
    std::vector<SampledCheckpoint> checkpoints;
};

/** What one detailed replay measured (deltas over its window). */
struct IntervalMeasure
{
    std::uint64_t cycles = 0; ///< detailed cycles in the window
    std::uint64_t insts = 0;  ///< slots retired in the window
    std::uint64_t groups = 0;
    bool halted = false; ///< program completed inside this replay
    std::array<std::uint64_t, cpu::kNumCycleClasses> classCounts{};
};

/**
 * Phase 1: runs the functional reference over @p prog. Checkpoint 0
 * is the entry state (its replay measures stratum 0 exactly, cold);
 * every later spacing-sized stratum of the instruction axis gets
 * one checkpoint at a uniformly jittered position.
 * When the checkpoint count would exceed opts.maxIntervals, every
 * other checkpoint is dropped and the spacing doubles — long
 * programs degrade to coarser sampling instead of unbounded memory,
 * and copy-on-write memory images keep the discarded checkpoints
 * cheap.
 */
SampledPlan sampledCheckpointPass(const isa::Program &prog,
                                  const SampledOptions &opts);

/**
 * Phase 2, one interval. Interval 0 is the exact cold-start prefix:
 * a cold model measured from the entry for one whole stratum
 * (plan.spacing slots). Every other interval warps a fresh model to
 * its checkpoint, functionally warms it from the checkpoint's
 * history, runs opts.warmupCycles of detailed warm-up, re-arms the
 * run latch, and measures until opts.detailCycles further slots
 * retire. A replay that halts during warm-up reports the warm-up
 * leg itself as the (final, partial) window so short program tails
 * are never lost.
 */
IntervalMeasure measureInterval(const isa::Program &prog, CpuKind kind,
                                const cpu::CoreConfig &cfg,
                                const SampledPlan &plan,
                                std::size_t index);

/**
 * Phase 3: combines the per-interval measures into a whole-run
 * SimOutcome. Instruction/group totals and architectural fingerprints
 * are exact (functional pass); cycles are estimated as totalInsts
 * times the mean per-window CPI — the unbiased statistic for windows
 * systematically placed along the instruction axis (a mean of window
 * IPCs would overweight high-IPC phases). Partial windows — those
 * that halted — are excluded from the mean and variance, but counted
 * in the sampled totals; cycle-class accounting is the measured mix
 * scaled
 * to the estimated length. Model statistics (branch, two-pass, ALAT,
 * run-ahead) are left zero — a sampled outcome estimates time, not
 * microarchitectural event counts. run.halted is true: the functional
 * pass proved the program completes.
 */
SimOutcome stitchSampled(CpuKind kind, const SampledPlan &plan,
                         const std::vector<IntervalMeasure> &measures);

} // namespace sim
} // namespace ff

#endif // FF_SIM_SAMPLED_HH
