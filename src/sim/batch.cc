#include "sim/batch.hh"

#include <atomic>
#include <climits>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_set>

#include "common/cli_number.hh"
#include "common/engine_trace.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "sim/result_cache.hh"
#include "sim/snapshot.hh"

namespace ff
{
namespace sim
{

namespace
{

/** Per-process override installed by --jobs; 0 = none. */
std::atomic<unsigned> g_jobsOverride{0};

} // namespace

void
setJobs(unsigned jobs)
{
    g_jobsOverride.store(jobs, std::memory_order_relaxed);
}

unsigned
resolveJobs(unsigned requested)
{
    if (requested != 0)
        return requested;
    const unsigned o = g_jobsOverride.load(std::memory_order_relaxed);
    if (o != 0)
        return o;
    return defaultJobCount();
}

unsigned
parseJobsFlag(int &argc, char **argv)
{
    unsigned jobs = 0;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *flag = "--jobs";
        const char *value = nullptr;
        if (std::strncmp(arg, "--jobs=", 7) == 0) {
            value = arg + 7;
        } else if (std::strcmp(arg, "--jobs") == 0 ||
                   std::strcmp(arg, "-j") == 0) {
            ff_fatal_if(i + 1 >= argc, arg, " requires a count");
            flag = arg;
            value = argv[++i];
        } else {
            argv[out++] = argv[i];
            continue;
        }
        ff_fatal_if(!cli::tryParseNumber(value, jobs) || jobs == 0, "bad ",
                    flag, " value '", value,
                    "' (expected a count from 1 to ", UINT_MAX, ")");
    }
    argc = out;
    argv[argc] = nullptr;
    if (jobs != 0)
        setJobs(jobs);
    return jobs;
}

namespace
{

/**
 * The engine's one fan-out: runs fn(i) for every i in [0, n), inline
 * when the resolved job count is 1 or there is one index, else on a
 * pool built on first use, so one batch call builds at most one pool.
 */
class FanOut
{
  public:
    explicit FanOut(unsigned threads) : _jobs(resolveJobs(threads)) {}

    void
    operator()(std::size_t n, const std::function<void(std::size_t)> &fn)
    {
        if (_jobs <= 1 || n <= 1) {
            for (std::size_t i = 0; i < n; ++i)
                fn(i);
            return;
        }
        if (_pool == nullptr)
            _pool = std::make_unique<ThreadPool>(_jobs);
        _pool->parallelFor(n, fn);
    }

  private:
    unsigned _jobs;
    std::unique_ptr<ThreadPool> _pool;
};

/** One whole plain job: cold, or resumed from its own warm-up. */
SimOutcome
runPlain(const SimJob &j, std::uint64_t warmup_cycles)
{
    if (warmup_cycles == 0 || j.metrics.enabled()) {
        return simulate(*j.program, j.kind, j.cfg, j.maxCycles,
                        j.metrics);
    }
    WarmupResult warm = runWarmup(*j.program, j.kind, j.cfg,
                                  warmup_cycles, j.maxCycles);
    if (warm.completed)
        return std::move(warm.outcome);
    return resumeSnapshot(*j.program, j.kind, j.cfg, warm.snap,
                          j.maxCycles);
}

/**
 * The one batch executor. Its phases index position-stable vectors,
 * so every outcome is bit-identical at any job count:
 *
 *   1. a serial cache pass (file reads, no simulation);
 *   2. one functional checkpoint pass per (program, normalized
 *      sampling parameters): the plan is kind- and config-independent,
 *      so every model replaying one program shares it;
 *   3. one unit per detailed interval replay of a sampled job, so a
 *      lone sampled job still fills the workers, and one unit per
 *      whole plain job (see runPlain());
 *   4. serial stitching, then one store per content address.
 */
std::vector<SimOutcome>
execute(std::span<const SimJob> jobs, unsigned threads,
        std::uint64_t warmup_cycles)
{
    std::vector<SimOutcome> out(jobs.size());
    const bool cache = resultCacheEnabled();
    std::vector<std::string> keys(jobs.size());
    using PlanKey =
        std::tuple<const isa::Program *, std::uint64_t, std::uint64_t,
                   std::uint64_t, std::uint64_t>;
    std::map<PlanKey, std::size_t> planOf;
    std::vector<std::size_t> planJob; // representative job per plan
    std::vector<std::size_t> jobPlan(jobs.size(), SIZE_MAX);
    std::vector<std::size_t> pending; // jobs the cache did not answer
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SimJob &j = jobs[i];
        ff_fatal_if(j.program == nullptr, "SimJob without a program");
        ff_fatal_if(j.sampled.enabled() && j.metrics.enabled(),
                    "sampled jobs cannot collect metrics (observers "
                    "need the whole run)");
        // Metered runs feed observers that must see every cycle; the
        // cache would hand back a record without the metrics payload.
        if (cache && !j.metrics.enabled()) {
            keys[i] = resultCacheKey(*j.program, j.kind, j.cfg,
                                     j.maxCycles, j.sampled);
            if (resultCacheLookup(keys[i], out[i]))
                continue;
        }
        pending.push_back(i);
        if (!j.sampled.enabled())
            continue;
        const SampledOptions o = j.sampled.normalized();
        const auto [it, fresh] = planOf.emplace(
            PlanKey{j.program, o.intervalCycles, o.detailCycles,
                    o.warmupCycles, o.maxIntervals},
            planJob.size());
        if (fresh)
            planJob.push_back(i);
        jobPlan[i] = it->second;
    }

    FanOut fan(threads);
    std::vector<SampledPlan> plans(planJob.size());
    fan(plans.size(), [&](std::size_t p) {
        const SimJob &j = jobs[planJob[p]];
        verifyProgram(*j.program, j.cfg.limits);
        plans[p] =
            sampledCheckpointPass(*j.program, j.sampled.normalized());
    });

    struct Unit
    {
        std::size_t job;
        std::size_t interval; ///< SIZE_MAX = the whole plain job
    };
    std::vector<Unit> units;
    std::vector<std::vector<IntervalMeasure>> measures(jobs.size());
    for (const std::size_t i : pending) {
        if (jobPlan[i] == SIZE_MAX) {
            units.push_back(Unit{i, SIZE_MAX});
            continue;
        }
        measures[i].resize(plans[jobPlan[i]].checkpoints.size());
        for (std::size_t k = 0; k < measures[i].size(); ++k)
            units.push_back(Unit{i, k});
    }
    fan(units.size(), [&](std::size_t u) {
        const auto [i, k] = units[u];
        const SimJob &j = jobs[i];
        if (k != SIZE_MAX) {
            measures[i][k] = measureInterval(*j.program, j.kind, j.cfg,
                                             plans[jobPlan[i]], k);
            return;
        }
        engine::ScopedSpan span("job");
        out[i] = runPlain(j, warmup_cycles);
    });

    for (const std::size_t i : pending) {
        if (jobPlan[i] != SIZE_MAX) {
            out[i] = stitchSampled(jobs[i].kind, plans[jobPlan[i]],
                                   measures[i]);
        }
    }
    std::unordered_set<std::string> stored;
    for (const std::size_t i : pending) {
        if (!keys[i].empty() && stored.insert(keys[i]).second)
            resultCacheStore(keys[i], out[i]);
    }
    return out;
}

/** Builds the row-major workloads x variants job grid. */
std::vector<SimJob>
sweepJobs(std::span<const workloads::Workload> workloads,
          std::span<const SweepVariant> variants,
          std::uint64_t max_cycles)
{
    std::vector<SimJob> jobs;
    jobs.reserve(workloads.size() * variants.size());
    for (const workloads::Workload &w : workloads) {
        for (const SweepVariant &v : variants) {
            SimJob j;
            j.program = &w.program;
            j.kind = v.kind;
            j.cfg = v.cfg;
            j.maxCycles = max_cycles;
            j.metrics = v.metrics;
            j.sampled = v.sampled;
            jobs.push_back(j);
        }
    }
    return jobs;
}

} // namespace

std::vector<SimOutcome>
runBatch(std::span<const SimJob> jobs, unsigned threads)
{
    return execute(jobs, threads, 0);
}

std::vector<SimOutcome>
runSweep(std::span<const workloads::Workload> workloads,
         std::span<const SweepVariant> variants, unsigned threads)
{
    return runBatch(
        sweepJobs(workloads, variants, kDefaultMaxCycles), threads);
}

std::vector<SimOutcome>
runSweep(std::span<const workloads::Workload> workloads,
         std::span<const SweepVariant> variants,
         const SweepOptions &opts)
{
    return execute(sweepJobs(workloads, variants, opts.maxCycles),
                   opts.threads, opts.warmupCycles);
}

std::vector<FunctionalOutcome>
runFunctionalBatch(std::span<const isa::Program *const> programs,
                   unsigned threads)
{
    std::vector<FunctionalOutcome> out(programs.size());
    FanOut{threads}(programs.size(), [&](std::size_t i) {
        ff_fatal_if(programs[i] == nullptr,
                    "functional batch without a program");
        out[i] = runFunctional(*programs[i]);
    });
    return out;
}

std::vector<workloads::Workload>
buildWorkloadsParallel(std::span<const std::string> names, int scale,
                       workloads::InputSet input, unsigned threads)
{
    std::vector<workloads::Workload> out(names.size());
    FanOut{threads}(names.size(), [&](std::size_t i) {
        engine::ScopedSpan span("build");
        out[i] = workloads::buildWorkload(
            names[i], scale, compiler::SchedulerConfig(), input);
    });
    return out;
}

} // namespace sim
} // namespace ff
