/**
 * @file
 * Measures sampled simulation against ground truth: the full
 * ten-benchmark suite under base/2P/2Pre runs twice — once with full
 * detailed simulation and once sampled (functional checkpoints +
 * parallel detailed interval replay, see sim/sampled.hh) — and the
 * table reports per-run IPC, the sampled estimate with its 95%
 * confidence interval, and the relative error, plus the aggregate
 * wall-clock speedup of the sampled sweep over the full one.
 *
 * Usage: bench_sampled [--jobs N] [--json FILE]
 *                      [--sample INTERVAL[:DETAIL[:WARMUP]]]
 *                      [--max-err PCT] [scale-percent]
 * (default scale 100 and sampling config 32000:4000; --max-err makes
 * the run fail if any workload x model relative IPC error exceeds PCT
 * — the sampled_accuracy CI gate; --json writes a machine-readable
 * record for BENCH_fig6.json, from which tools/bench_smoke.sh gates
 * the sampler's own cost. The speedup is printed, not gated: it is a
 * ratio to detailed simulation, so it moves whenever that gets
 * faster.)
 *
 * Timing note: both sweeps run through the same engine at the same
 * job count, so the reported speedup isolates the sampling estimator.
 * Run without FF_CACHE_DIR — cache hits would time the cache, not
 * the simulator.
 *
 * The sampler's own cost is reported apart from that ratio, which
 * moves whenever detailed simulation gets faster: the cycles it
 * simulates in detail (measured windows plus the warm-up legs before
 * them, an upper bound) against the full sweep's cycles, a
 * deterministic count, and the summed time of its functional
 * checkpoint passes (the engine's "sample-plan" spans).
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/cli_number.hh"
#include "common/engine_trace.hh"
#include "sim/batch.hh"
#include "sim/report.hh"
#include "sim/result_cache.hh"
#include "sim/sampled.hh"
#include "workloads/workload.hh"

using namespace ff;

int
main(int argc, char **argv)
{
    const unsigned jobs_flag = sim::parseJobsFlag(argc, argv);
    std::string json_path;
    sim::SampledOptions sopt;
    sopt.intervalCycles = 32000;
    sopt.detailCycles = 4000;
    double max_err_pct = 0.0;    // 0 = no accuracy gate
    {
        int out = 1;
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
                json_path = argv[++i];
            else if (std::strcmp(argv[i], "--sample") == 0 &&
                     i + 1 < argc)
                sopt = sim::parseSampleSpec("--sample", argv[++i]);
            else if (std::strcmp(argv[i], "--max-err") == 0 &&
                     i + 1 < argc)
                max_err_pct = cli::parseReal("--max-err", argv[++i]);
            else
                argv[out++] = argv[i];
        }
        argc = out;
    }
    const int scale =
        argc > 1 ? cli::parseNumber<int>("scale", argv[1]) : 100;
    const sim::SampledOptions norm = sopt.normalized();

    std::printf("=== Sampled simulation vs ground truth "
                "(base / 2P / 2Pre) ===\n\n");
    std::printf("sampling: interval=%llu detail=%llu warmup=%llu "
                "maxIntervals=%llu\n\n",
                static_cast<unsigned long long>(norm.intervalCycles),
                static_cast<unsigned long long>(norm.detailCycles),
                static_cast<unsigned long long>(norm.warmupCycles),
                static_cast<unsigned long long>(norm.maxIntervals));
    if (sim::resultCacheEnabled())
        std::printf("WARNING: result cache enabled — wall times "
                    "measure the cache, not the simulator\n\n");

    const std::vector<workloads::Workload> suite =
        sim::buildWorkloadsParallel(workloads::workloadNames(), scale);

    const std::vector<sim::SweepVariant> full_variants = {
        {sim::CpuKind::kBaseline, {}},
        {sim::CpuKind::kTwoPass, {}},
        {sim::CpuKind::kTwoPassRegroup, {}},
    };
    std::vector<sim::SweepVariant> sampled_variants = full_variants;
    for (sim::SweepVariant &v : sampled_variants)
        v.sampled = sopt;

    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<sim::SimOutcome> full =
        sim::runSweep(suite, full_variants);
    const auto t1 = std::chrono::steady_clock::now();
    engine::traceEnable();
    const std::vector<sim::SimOutcome> sampled =
        sim::runSweep(suite, sampled_variants);
    const auto t2 = std::chrono::steady_clock::now();
    const engine::TraceData spans = engine::traceStop();

    double plan_seconds = 0.0;
    for (const engine::TraceSpan &sp : spans.spans) {
        if (spans.names[sp.name] == "sample-plan")
            plan_seconds += 1e-6 * static_cast<double>(sp.durUs);
    }

    static const char *const kModelNames[] = {"base", "2P", "2Pre"};
    sim::TextTable t;
    t.header({"benchmark", "cfg", "full ipc", "sampled ipc", "ci95",
              "err", "windows"});

    double max_err = 0.0, sum_err = 0.0;
    std::string worst;
    unsigned rows = 0, covered = 0;
    std::uint64_t full_cycles = 0, detailed_cycles = 0;
    for (std::size_t wi = 0; wi < suite.size(); ++wi) {
        for (std::size_t v = 0; v < full_variants.size(); ++v) {
            const sim::SimOutcome &f = full[wi * 3 + v];
            const sim::SimOutcome &s = sampled[wi * 3 + v];
            const sim::SampledEstimate &e = *s.sampled;
            full_cycles += f.run.cycles;
            // Interval 0, the exact prefix, runs no warm-up leg.
            detailed_cycles +=
                e.sampledCycles + (e.intervalsTotal - 1) *
                                      e.options.warmupCycles;
            const double full_ipc = f.run.ipc();
            const double err =
                std::fabs(e.ipcMean - full_ipc) / full_ipc;
            sum_err += err;
            ++rows;
            if (err > max_err) {
                max_err = err;
                worst = suite[wi].name + std::string("/") +
                        kModelNames[v];
            }
            if (std::fabs(e.ipcMean - full_ipc) <= e.ipcCi95)
                ++covered;
            t.row({suite[wi].name, kModelNames[v],
                   sim::fixed(full_ipc, 4), sim::fixed(e.ipcMean, 4),
                   "+/-" + sim::fixed(e.ipcCi95, 4),
                   sim::pct(err),
                   std::to_string(e.intervalsMeasured) + "/" +
                       std::to_string(e.intervalsTotal)});
        }
    }
    std::printf("%s\n", t.render().c_str());

    const double full_wall =
        std::chrono::duration<double>(t1 - t0).count();
    const double sampled_wall =
        std::chrono::duration<double>(t2 - t1).count();
    const double speedup = full_wall / std::max(sampled_wall, 1e-9);
    const double mean_err = sum_err / rows;
    const unsigned jobs = sim::resolveJobs(jobs_flag);

    std::printf("error: max %s (%s), mean %s over %u runs; "
                "CI95 covers truth in %u/%u\n",
                sim::pct(max_err).c_str(), worst.c_str(),
                sim::pct(mean_err).c_str(), rows, covered, rows);
    std::printf("[engine] %u job%s: full %.2f s, sampled %.2f s — "
                "%.2fx speedup\n",
                jobs, jobs == 1 ? "" : "s", full_wall, sampled_wall,
                speedup);
    std::printf("sampler: %llu of %llu full-run cycles simulated in "
                "detail (%.1f%%); checkpoint passes %.3f s\n",
                static_cast<unsigned long long>(detailed_cycles),
                static_cast<unsigned long long>(full_cycles),
                100.0 * static_cast<double>(detailed_cycles) /
                    static_cast<double>(full_cycles),
                plan_seconds);

    if (!json_path.empty()) {
        std::FILE *f = std::fopen(json_path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
        std::fprintf(
            f,
            "{\n"
            "  \"bench\": \"sampled\",\n"
            "  \"scale\": %d,\n"
            "  \"jobs\": %u,\n"
            "  \"sims\": %zu,\n"
            "  \"sample\": \"%llu:%llu:%llu\",\n"
            "  \"fullWallSeconds\": %.3f,\n"
            "  \"sampledWallSeconds\": %.3f,\n"
            "  \"sampledSpeedup\": %.2f,\n"
            "  \"fullCycles\": %llu,\n"
            "  \"detailedCycles\": %llu,\n"
            "  \"planSeconds\": %.3f,\n"
            "  \"maxRelErrPct\": %.3f,\n"
            "  \"meanRelErrPct\": %.3f\n"
            "}\n",
            scale, jobs, full.size(),
            static_cast<unsigned long long>(norm.intervalCycles),
            static_cast<unsigned long long>(norm.detailCycles),
            static_cast<unsigned long long>(norm.warmupCycles),
            full_wall, sampled_wall, speedup,
            static_cast<unsigned long long>(full_cycles),
            static_cast<unsigned long long>(detailed_cycles),
            plan_seconds, 100.0 * max_err, 100.0 * mean_err);
        std::fclose(f);
    }

    if (max_err_pct > 0.0 && 100.0 * max_err > max_err_pct) {
        std::fprintf(stderr,
                     "bench_sampled: FAIL — max relative IPC error "
                     "%.3f%% (%s) exceeds the %.2f%% gate\n",
                     100.0 * max_err, worst.c_str(), max_err_pct);
        return 1;
    }
    return 0;
}
