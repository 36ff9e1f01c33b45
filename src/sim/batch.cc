#include "sim/batch.hh"

#include <atomic>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <map>
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
 * The sampled-aware batch executor: taken whenever any job samples.
 * Three phases over position-stable vectors (deterministic at any
 * thread count):
 *
 *   A. one functional checkpoint pass per (program, normalized
 *      sampling parameters) group — the plan is kind- and
 *      config-independent, so every model replaying one program
 *      shares it;
 *   B. one pool unit per detailed interval replay of every sampled
 *      job (plain jobs ride along as single units), so a lone
 *      sampled job still saturates the workers;
 *   C. serial stitching and cache stores.
 */
std::vector<SimOutcome>
runSampledBatch(std::span<const SimJob> jobs, unsigned threads)
{
    std::vector<SimOutcome> out(jobs.size());

    // ---- cache pass (serial: file reads, no simulation) ------------
    const bool cache = resultCacheEnabled();
    std::vector<std::string> keys(jobs.size());
    std::vector<char> resolved(jobs.size(), 0);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SimJob &j = jobs[i];
        ff_fatal_if(j.sampled.enabled() && j.metrics.enabled(),
                    "sampled jobs cannot collect metrics (observers "
                    "need the whole run)");
        if (!cache || j.metrics.enabled())
            continue;
        keys[i] = resultCacheKey(*j.program, j.kind, j.cfg,
                                 j.maxCycles, j.sampled);
        if (resultCacheLookup(keys[i], out[i]))
            resolved[i] = 1;
    }

    // ---- group sampled jobs by (program, sampling parameters) ------
    struct PlanGroup
    {
        std::size_t first; ///< representative job index
        SampledPlan plan;
    };
    using PlanKey =
        std::tuple<const isa::Program *, std::uint64_t, std::uint64_t,
                   std::uint64_t, std::uint64_t>;
    std::map<PlanKey, std::size_t> groupOf;
    std::vector<PlanGroup> groups;
    std::vector<std::size_t> jobGroup(jobs.size(), SIZE_MAX);
    std::vector<std::size_t> pending; // unresolved jobs, any bin
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (resolved[i])
            continue;
        pending.push_back(i);
        if (!jobs[i].sampled.enabled())
            continue;
        const SampledOptions o = jobs[i].sampled.normalized();
        const PlanKey k{jobs[i].program, o.intervalCycles,
                        o.detailCycles, o.warmupCycles,
                        o.maxIntervals};
        const auto [it, fresh] = groupOf.emplace(k, groups.size());
        if (fresh)
            groups.push_back(PlanGroup{i, SampledPlan{}});
        jobGroup[i] = it->second;
    }

    const unsigned n = resolveJobs(threads);

    // ---- phase A: one checkpoint pass per plan group ---------------
    auto plan_one = [&](std::size_t g) {
        const SimJob &j = jobs[groups[g].first];
        verifyProgram(*j.program, j.cfg.limits);
        groups[g].plan =
            sampledCheckpointPass(*j.program, j.sampled.normalized());
    };

    // ---- phase B: every interval replay is its own pool unit -------
    struct Unit
    {
        std::size_t job;
        std::size_t interval; ///< SIZE_MAX = plain (whole) job
    };
    std::vector<Unit> units;
    std::vector<std::vector<IntervalMeasure>> measures(jobs.size());
    auto flatten_units = [&]() {
        for (const std::size_t i : pending) {
            if (jobGroup[i] == SIZE_MAX) {
                units.push_back(Unit{i, SIZE_MAX});
                continue;
            }
            const SampledPlan &plan = groups[jobGroup[i]].plan;
            measures[i].resize(plan.checkpoints.size());
            for (std::size_t k = 0; k < plan.checkpoints.size(); ++k)
                units.push_back(Unit{i, k});
        }
    };
    auto unit_one = [&](std::size_t u) {
        const Unit &unit = units[u];
        const SimJob &j = jobs[unit.job];
        if (unit.interval == SIZE_MAX) {
            engine::ScopedSpan span("job");
            out[unit.job] = simulate(*j.program, j.kind, j.cfg,
                                     j.maxCycles, j.metrics);
            return;
        }
        const SampledPlan &plan = groups[jobGroup[unit.job]].plan;
        measures[unit.job][unit.interval] = measureInterval(
            *j.program, j.kind, j.cfg, plan, unit.interval);
    };

    if (n <= 1) {
        for (std::size_t g = 0; g < groups.size(); ++g)
            plan_one(g);
        flatten_units();
        for (std::size_t u = 0; u < units.size(); ++u)
            unit_one(u);
    } else {
        ThreadPool pool(n);
        if (!groups.empty())
            pool.parallelFor(groups.size(), plan_one);
        flatten_units();
        if (!units.empty())
            pool.parallelFor(units.size(), unit_one);
    }

    // ---- phase C: stitch, then store once per content address ------
    for (const std::size_t i : pending) {
        if (jobGroup[i] == SIZE_MAX)
            continue;
        out[i] = stitchSampled(jobs[i].kind, groups[jobGroup[i]].plan,
                               measures[i]);
    }
    if (cache) {
        std::unordered_set<std::string> stored;
        for (const std::size_t i : pending) {
            if (keys[i].empty() || !stored.insert(keys[i]).second)
                continue;
            resultCacheStore(keys[i], out[i]);
        }
    }
    return out;
}

} // namespace

std::vector<SimOutcome>
runBatch(std::span<const SimJob> jobs, unsigned threads)
{
    std::vector<SimOutcome> out(jobs.size());
    if (jobs.empty())
        return out;
    for (const SimJob &j : jobs)
        ff_fatal_if(j.program == nullptr, "SimJob without a program");

    bool any_sampled = false;
    for (const SimJob &j : jobs)
        any_sampled = any_sampled || j.sampled.enabled();
    if (any_sampled)
        return runSampledBatch(jobs, threads);

    auto run_one = [&](std::size_t i) {
        engine::ScopedSpan span("job");
        out[i] = simulateCached(jobs[i]);
    };

    const unsigned n = resolveJobs(threads);
    if (n <= 1 || jobs.size() == 1) {
        for (std::size_t i = 0; i < jobs.size(); ++i)
            run_one(i);
        return out;
    }
    ThreadPool pool(n);
    pool.parallelFor(jobs.size(), run_one);
    return out;
}

SimOutcome
simulateCached(const SimJob &j)
{
    if (j.sampled.enabled()) {
        ff_fatal_if(j.metrics.enabled(),
                    "sampled jobs cannot collect metrics (observers "
                    "need the whole run)");
        // Sampled outcomes are keyed separately: the sampling
        // parameters join the content address, so a sampled estimate
        // can never answer a detailed query (or vice versa).
        if (!resultCacheEnabled()) {
            return simulateSampled(*j.program, j.kind, j.cfg,
                                   j.sampled, j.maxCycles);
        }
        const std::string key = resultCacheKey(
            *j.program, j.kind, j.cfg, j.maxCycles, j.sampled);
        SimOutcome out;
        if (resultCacheLookup(key, out))
            return out;
        out = simulateSampled(*j.program, j.kind, j.cfg, j.sampled,
                              j.maxCycles);
        resultCacheStore(key, out);
        return out;
    }
    // Metered runs feed observers that must see every cycle; the
    // cache would hand back a record without the metrics payload.
    if (j.metrics.enabled() || !resultCacheEnabled()) {
        return simulate(*j.program, j.kind, j.cfg, j.maxCycles,
                        j.metrics);
    }
    const std::string key =
        resultCacheKey(*j.program, j.kind, j.cfg, j.maxCycles);
    SimOutcome out;
    if (resultCacheLookup(key, out))
        return out;
    out = simulate(*j.program, j.kind, j.cfg, j.maxCycles, j.metrics);
    resultCacheStore(key, out);
    return out;
}

namespace
{

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

/**
 * The warm-up-sharing executor. Cells fall into three bins: cache
 * hits (resolved before any simulation), metered cells (always run
 * cold under simulate()), and fork candidates — grouped by (program,
 * kind, canonical config, budget) so each group executes the shared
 * warm-up prefix exactly once and every member resumes from the
 * snapshot. All phases index into position-stable vectors, so the
 * outcome order — and every outcome bit — is independent of the job
 * count.
 */
std::vector<SimOutcome>
runForkedBatch(std::span<const SimJob> jobs, const SweepOptions &opts)
{
    std::vector<SimOutcome> out(jobs.size());
    if (jobs.empty())
        return out;
    for (const SimJob &j : jobs)
        ff_fatal_if(j.program == nullptr, "SimJob without a program");

    // ---- cache pass (serial: file reads, no simulation) ------------
    const bool cache = resultCacheEnabled();
    std::vector<std::string> keys(jobs.size());
    std::vector<char> resolved(jobs.size(), 0);
    if (cache) {
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const SimJob &j = jobs[i];
            if (j.metrics.enabled())
                continue;
            keys[i] = resultCacheKey(*j.program, j.kind, j.cfg,
                                     j.maxCycles);
            if (resultCacheLookup(keys[i], out[i]))
                resolved[i] = 1;
        }
    }

    // ---- group the fork candidates ---------------------------------
    struct Group
    {
        std::size_t first; ///< representative job index
        WarmupResult warm;
    };
    using GroupKey = std::tuple<const isa::Program *, unsigned,
                                std::uint64_t, std::uint64_t>;
    std::map<GroupKey, std::size_t> groupOf;
    std::vector<Group> groups;
    std::vector<std::size_t> cellGroup(jobs.size(), SIZE_MAX);
    std::vector<std::size_t> pending; // unresolved cells, any bin
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (resolved[i])
            continue;
        pending.push_back(i);
        const SimJob &j = jobs[i];
        if (j.metrics.enabled())
            continue; // cold metered run; no fork
        const GroupKey k{j.program, static_cast<unsigned>(j.kind),
                         canonicalConfigHash(j.cfg), j.maxCycles};
        const auto [it, fresh] = groupOf.emplace(k, groups.size());
        if (fresh)
            groups.push_back(Group{i, WarmupResult{}});
        cellGroup[i] = it->second;
    }

    const unsigned n = resolveJobs(opts.threads);

    // ---- phase A: one shared warm-up per group ---------------------
    auto warm_one = [&](std::size_t g) {
        const SimJob &j = jobs[groups[g].first];
        groups[g].warm = runWarmup(*j.program, j.kind, j.cfg,
                                   opts.warmupCycles, j.maxCycles);
    };
    // ---- phase B: fork every member / run metered cells cold -------
    auto finish_one = [&](std::size_t p) {
        const std::size_t i = pending[p];
        const SimJob &j = jobs[i];
        if (cellGroup[i] == SIZE_MAX) {
            engine::ScopedSpan span("job");
            out[i] = simulate(*j.program, j.kind, j.cfg, j.maxCycles,
                              j.metrics);
            return;
        }
        const WarmupResult &warm = groups[cellGroup[i]].warm;
        out[i] = warm.completed
            ? warm.outcome
            : resumeSnapshot(*j.program, j.kind, j.cfg, warm.snap,
                             j.maxCycles);
    };

    if (n <= 1) {
        for (std::size_t g = 0; g < groups.size(); ++g)
            warm_one(g);
        for (std::size_t p = 0; p < pending.size(); ++p)
            finish_one(p);
    } else {
        ThreadPool pool(n);
        if (!groups.empty())
            pool.parallelFor(groups.size(), warm_one);
        if (!pending.empty())
            pool.parallelFor(pending.size(), finish_one);
    }

    // ---- store pass: once per unique content address ---------------
    if (cache) {
        std::unordered_set<std::string> stored;
        for (const std::size_t i : pending) {
            if (keys[i].empty() || !stored.insert(keys[i]).second)
                continue;
            resultCacheStore(keys[i], out[i]);
        }
    }
    return out;
}

} // namespace

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
    const std::vector<SimJob> jobs =
        sweepJobs(workloads, variants, opts.maxCycles);
    // Sampled cells replay from functional checkpoints — a shared
    // timed warm-up prefix has nothing to fork for them — so a grid
    // with any sampled column routes through the sampled-aware batch
    // engine instead of the warm-up-sharing executor.
    bool any_sampled = false;
    for (const SweepVariant &v : variants)
        any_sampled = any_sampled || v.sampled.enabled();
    if (opts.warmupCycles == 0 || any_sampled)
        return runBatch(jobs, opts.threads);
    return runForkedBatch(jobs, opts);
}

std::vector<FunctionalOutcome>
runFunctionalBatch(std::span<const isa::Program *const> programs,
                   unsigned threads)
{
    std::vector<FunctionalOutcome> out(programs.size());
    if (programs.empty())
        return out;

    auto run_one = [&](std::size_t i) {
        ff_fatal_if(programs[i] == nullptr,
                    "functional batch without a program");
        out[i] = runFunctional(*programs[i]);
    };

    const unsigned n = resolveJobs(threads);
    if (n <= 1 || programs.size() == 1) {
        for (std::size_t i = 0; i < programs.size(); ++i)
            run_one(i);
        return out;
    }
    ThreadPool pool(n);
    pool.parallelFor(programs.size(), run_one);
    return out;
}

std::vector<workloads::Workload>
buildWorkloadsParallel(std::span<const std::string> names, int scale,
                       workloads::InputSet input, unsigned threads)
{
    std::vector<workloads::Workload> out(names.size());
    if (names.empty())
        return out;

    auto build_one = [&](std::size_t i) {
        engine::ScopedSpan span("build");
        out[i] = workloads::buildWorkload(
            names[i], scale, compiler::SchedulerConfig(), input);
    };

    const unsigned n = resolveJobs(threads);
    if (n <= 1 || names.size() == 1) {
        for (std::size_t i = 0; i < names.size(); ++i)
            build_one(i);
        return out;
    }
    ThreadPool pool(n);
    pool.parallelFor(names.size(), build_one);
    return out;
}

} // namespace sim
} // namespace ff
