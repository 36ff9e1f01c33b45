/**
 * @file
 * The parallel experiment engine. Every experiment in the repo is a
 * grid of independent, deterministic simulations; runBatch executes
 * such a grid on one thread pool and returns the outcomes in
 * submission order, so every table, figure and fingerprint a bench
 * prints is bit-identical to the serial run regardless of the job
 * count. Every batch, detailed, sampled, cached or warm-up-forked,
 * goes through the same executor.
 *
 * Job-count resolution, everywhere a count of 0 is passed:
 *   1. the per-process override (setJobs(), set by --jobs in benches),
 *   2. else the FF_JOBS environment variable,
 *   3. else the hardware concurrency.
 */

#ifndef FF_SIM_BATCH_HH
#define FF_SIM_BATCH_HH

#include <span>
#include <vector>

#include "sim/harness.hh"
#include "sim/sampled.hh"
#include "workloads/workload.hh"

namespace ff
{
namespace sim
{

/** One simulation of the experiment grid. */
struct SimJob
{
    /** Program to run; must outlive the batch. */
    const isa::Program *program = nullptr;
    CpuKind kind = CpuKind::kBaseline;
    cpu::CoreConfig cfg;
    std::uint64_t maxCycles = kDefaultMaxCycles;
    /** Profile/telemetry collection for this job (off by default;
     *  read-only observers, so aggregate results are unaffected). */
    MetricsOptions metrics{};
    /** Sampled simulation for this job (disabled by default). A
     *  sampled job estimates run time from replayed intervals; see
     *  sim/sampled.hh. Mutually exclusive with metrics collection. */
    SampledOptions sampled{};
};

/**
 * Runs every job, fanned out over @p threads workers (0 = resolved
 * default), and returns outcomes with outcome[i] belonging to
 * jobs[i]. A resolved count of 1 runs inline on the calling thread —
 * "--jobs 1" is genuinely serial, not a one-thread pool — and no
 * loop starts more workers than it has units.
 *
 * Jobs that collect no metrics are answered from the result cache
 * when one is configured (FF_CACHE_DIR / --cache-dir); a miss is
 * simulated and stored once per content address. Sampled jobs are
 * decomposed: one functional checkpoint pass per (program, sampling
 * parameters), shared across model kinds, then every detailed
 * interval replay becomes its own unit, so a single sampled job
 * already fills the workers. Outcomes are bit-identical at any
 * thread count.
 */
std::vector<SimOutcome> runBatch(std::span<const SimJob> jobs,
                                 unsigned threads = 0);

/** One (model, configuration) column of a sweep grid. */
struct SweepVariant
{
    CpuKind kind = CpuKind::kBaseline;
    cpu::CoreConfig cfg;
    /** Metrics collection for every cell of this column; each
     *  outcome then carries its own MetricsRecord. */
    MetricsOptions metrics{};
    /** Sampled simulation for every cell of this column. */
    SampledOptions sampled{};
};

/**
 * Crosses workloads x variants into one batch (row-major: outcome
 * [w * variants.size() + v] is workload w under variant v) and runs
 * it. The canonical shape of the figure/ablation benches: every
 * workload column-swept over kinds and config overrides.
 */
std::vector<SimOutcome> runSweep(
    std::span<const workloads::Workload> workloads,
    std::span<const SweepVariant> variants, unsigned threads = 0);

/** Execution knobs for runSweep(). */
struct SweepOptions
{
    unsigned threads = 0; ///< 0 = resolved default (see header rules)

    /**
     * Warm-up prefix length in cycles; 0 disables forking. Each plain
     * cell without metrics runs its first warmupCycles, snapshots the
     * machine, and resumes from the saved state. Restore is
     * bit-exact, so outcomes are bit-identical to cold runs at any
     * job count.
     */
    std::uint64_t warmupCycles = 0;

    /** Per-cell cycle budget (total simulated cycles, warm-up
     *  included), matching simulate()'s parameter. */
    std::uint64_t maxCycles = kDefaultMaxCycles;
};

/**
 * As runSweep(workloads, variants, threads), with the cycle budget and
 * warm-up forking of @p opts. Cells resolved by the result cache skip
 * simulation entirely, and cells collecting metrics always run cold.
 */
std::vector<SimOutcome> runSweep(
    std::span<const workloads::Workload> workloads,
    std::span<const SweepVariant> variants, const SweepOptions &opts);

/** Functional-reference outcomes for a set of programs, in order. */
std::vector<FunctionalOutcome> runFunctionalBatch(
    std::span<const isa::Program *const> programs,
    unsigned threads = 0);

/**
 * Builds the named workloads concurrently (scheduling is itself a
 * measurable serial cost at bench scale); result[i] is names[i].
 */
std::vector<workloads::Workload> buildWorkloadsParallel(
    std::span<const std::string> names, int scale,
    workloads::InputSet input = workloads::InputSet::kDefault,
    unsigned threads = 0);

/**
 * Sets the per-process job-count override (0 clears it back to
 * FF_JOBS / hardware concurrency). Call before spawning batches.
 */
void setJobs(unsigned jobs);

/** Resolves a requested count (0 = default) per the header rules. */
unsigned resolveJobs(unsigned requested);

/**
 * Strips "--jobs N" / "--jobs=N" / "-j N" from argv (adjusting argc)
 * and installs the value via setJobs(). N is a positive integer that
 * fits an unsigned, in cli::tryParseNumber syntax; anything else is
 * fatal. Returns the parsed count, or 0 if the flag was absent.
 * Benches call this first so positional arguments (scale, "alt")
 * keep their meaning.
 */
unsigned parseJobsFlag(int &argc, char **argv);

} // namespace sim
} // namespace ff

#endif // FF_SIM_BATCH_HH
