/**
 * @file
 * The experiment harness: runs any CPU model on a program to
 * completion, collects every statistic the paper's tables and
 * figures need, and fingerprints architectural state so benches and
 * tests can cross-check correctness for free. Models are built
 * exclusively through cpu::makeModel — this header deliberately
 * includes no concrete model header.
 */

#ifndef FF_SIM_HARNESS_HH
#define FF_SIM_HARNESS_HH

#include <cstdint>
#include <memory>
#include <string>

#include "cpu/core/functional_result.hh"
#include "cpu/core/model_factory.hh"
#include "cpu/cpu.hh"
#include "cpu/model_stats.hh"
#include "sim/machine_config.hh"
#include "sim/metrics.hh"

namespace ff
{
namespace sim
{

struct SampledEstimate; // sim/sampled.hh

// CpuKind migrated to the cpu core layer with the model factory; the
// sim spelling stays valid for the existing benches and tests.
using cpu::CpuKind;
// Deliberate re-export for sim:: consumers even in TUs that render no
// names. NOLINT(misc-unused-using-decls)
using cpu::cpuKindName; // NOLINT(misc-unused-using-decls)

/** Everything a bench needs from one simulation. */
struct SimOutcome
{
    CpuKind kind;
    cpu::RunResult run;
    cpu::CycleAccounting cycles;
    memory::AccessStats accesses;
    branch::PredictorStats branches;
    cpu::BaselineStats baseline;     ///< base and run-ahead kinds only
    cpu::TwoPassStats twopass;       ///< two-pass kinds only
    memory::AlatStats alat;          ///< two-pass kinds only
    cpu::RunaheadStats runahead;     ///< run-ahead kind only
    std::uint64_t regFingerprint = 0;
    std::uint64_t memFingerprint = 0;
    std::uint64_t checksum = 0;      ///< word at the checksum address

    /**
     * Harvested profile/telemetry data; null unless the run asked
     * for metrics. Shared so outcomes stay cheap to copy through the
     * batch engine.
     */
    std::shared_ptr<const MetricsRecord> metrics;

    /**
     * Statistical estimate of a sampled run (sim/sampled.hh); null
     * for detailed runs. When set, run.cycles and the cycle-class
     * accounting are estimates (instruction counts and fingerprints
     * stay exact — they come from the functional pass).
     */
    std::shared_ptr<const SampledEstimate> sampled;
};

/** Default cycle budget: generous, but stops runaway models. */
inline constexpr std::uint64_t kDefaultMaxCycles = 400'000'000ULL;

/**
 * Runs @p kind on @p prog. Fails fatally if the model does not halt
 * within @p max_cycles (a timed model that cannot finish a workload
 * is a simulator bug, not a result). When @p metrics enables
 * collection, the outcome carries the harvested MetricsRecord; the
 * observers are strictly read-only, so every other outcome field is
 * bit-identical to an unmetered run.
 */
SimOutcome simulate(const isa::Program &prog, CpuKind kind,
                    const cpu::CoreConfig &cfg = table1Config(),
                    std::uint64_t max_cycles = kDefaultMaxCycles,
                    const MetricsOptions &metrics = MetricsOptions());

/**
 * The load-time ffcheck verification wall simulate() runs before
 * constructing a model: errors are fatal, results are memoized by
 * (instruction-stream hash, limits). Exposed so alternate entry
 * points into timed simulation (snapshot warm-up/resume) give every
 * program the same admission check exactly once.
 */
void verifyProgram(const isa::Program &prog,
                   const isa::GroupLimits &limits);

/**
 * Harvests the aggregate outcome fields (accounting, access and
 * model statistics, fingerprints) from a completed model run.
 * Shared by simulate() and the tests and benches that construct
 * models directly but still want the standard outcome shape.
 */
SimOutcome collectOutcome(cpu::CpuModel &model, CpuKind kind,
                          const cpu::RunResult &run);

/**
 * Moves the recorded pipeline events out of @p outcome's metrics
 * record, which keeps every other field: the trace builder then owns
 * the one copy of a stream that can run to 100 MB. @p outcome must
 * hold the only reference to its record, as a metered outcome fresh
 * from runBatch() does (metered runs are never cached); panics
 * otherwise.
 */
std::vector<cpu::PipeEvent> takePipeEvents(SimOutcome &outcome);

/**
 * Renders @p outcome as gem5-style "group.stat value" lines, each
 * group in sorted order: the cycles, branch and mem groups every
 * kind shares, then the sections @p outcome's kind owns (baseline for
 * base; twopass, alat and cq for 2P and 2Pre; runahead for
 * run-ahead). The ffvm --stats dump; a cached outcome renders the
 * same text as the run that stored it.
 */
std::string statsReport(const SimOutcome &outcome);

/** Functional-reference outcome for equivalence checks. */
struct FunctionalOutcome
{
    cpu::FunctionalResult result;
    std::uint64_t regFingerprint = 0;
    std::uint64_t memFingerprint = 0;
    std::uint64_t checksum = 0;
};

FunctionalOutcome runFunctional(const isa::Program &prog);

} // namespace sim
} // namespace ff

#endif // FF_SIM_HARNESS_HH
