/**
 * @file
 * Reproduces Figure 6: normalized execution cycles with the six-way
 * stall breakdown for the baseline (base), two-pass (2P), and
 * two-pass with instruction regrouping (2Pre) machines, across the
 * ten-benchmark suite. Also prints the in-text headline statistics
 * (S3: mcf's memory-stall and total-cycle reductions; S4: the average
 * 2Pre speedup over 2P).
 *
 * Usage: bench_fig6 [--jobs N] [--json FILE] [--warmup N]
 *                   [scale-percent] [alt]
 * (default scale 100; pass "alt" to run the alternate input set,
 * validating that the reproduced shape is not an artifact of one
 * particular seed; --json appends a machine-readable throughput
 * record for the CI bench-smoke step; --warmup N runs each cell's
 * first N cycles, snapshots the machine and resumes from the
 * snapshot — results stay bit-identical. Set FF_CACHE_DIR to reuse
 * outcomes across invocations through the result cache.)
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/cli_number.hh"
#include "compiler/scheduler.hh"

#include "sim/batch.hh"
#include "sim/harness.hh"
#include "sim/report.hh"
#include "sim/result_cache.hh"
#include "workloads/workload.hh"

using namespace ff;

int
main(int argc, char **argv)
{
    const unsigned jobs_flag = sim::parseJobsFlag(argc, argv);
    std::string json_path;
    std::uint64_t warmup_cycles = 0;
    {
        int out = 1;
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
                json_path = argv[++i];
            else if (std::strcmp(argv[i], "--warmup") == 0 &&
                     i + 1 < argc)
                warmup_cycles = cli::parseNumber<std::uint64_t>(
                    "--warmup", argv[++i]);
            else
                argv[out++] = argv[i];
        }
        argc = out;
    }
    const int scale =
        argc > 1 ? cli::parseNumber<int>("scale", argv[1]) : 100;
    const workloads::InputSet input =
        (argc > 2 && std::string(argv[2]) == "alt")
            ? workloads::InputSet::kAlternate
            : workloads::InputSet::kDefault;

    std::printf("=== Figure 6: normalized execution cycles "
                "(baseline / 2P / 2Pre) [%s inputs] ===\n\n",
                workloads::inputSetName(input));
    std::printf("%s\n",
                sim::describeConfig(sim::table1Config()).c_str());

    const auto t0 = std::chrono::steady_clock::now();

    const std::vector<workloads::Workload> suite =
        sim::buildWorkloadsParallel(workloads::workloadNames(), scale,
                                    input);
    const std::vector<sim::SweepVariant> variants = {
        {sim::CpuKind::kBaseline, {}},
        {sim::CpuKind::kTwoPass, {}},
        {sim::CpuKind::kTwoPassRegroup, {}},
    };
    sim::resetResultCacheStats();
    sim::SweepOptions sweep_opts;
    sweep_opts.warmupCycles = warmup_cycles;
    const std::vector<sim::SimOutcome> outcomes =
        sim::runSweep(suite, variants, sweep_opts);

    const auto t1 = std::chrono::steady_clock::now();
    const sim::ResultCacheStats cache = sim::resultCacheStats();

    sim::TextTable t;
    t.header({"benchmark", "cfg", "unstalled", "load", "nonload",
              "resource", "frontend", "apipe", "total", "speedup"});

    double geo_2p = 0.0, geo_2pre = 0.0, geo_2pre_over_2p = 0.0;
    unsigned n = 0;
    double mcf_mem_reduction = 0.0, mcf_cycle_reduction = 0.0;
    std::uint64_t total_sim_cycles = 0;

    for (std::size_t wi = 0; wi < suite.size(); ++wi) {
        const std::string &name = suite[wi].name;
        const sim::SimOutcome &base = outcomes[wi * 3 + 0];
        const sim::SimOutcome &twop = outcomes[wi * 3 + 1];
        const sim::SimOutcome &twopre = outcomes[wi * 3 + 2];

        const double base_cycles = static_cast<double>(base.run.cycles);
        struct RowSpec
        {
            const char *cfg;
            const sim::SimOutcome *o;
        };
        for (const RowSpec &r : {RowSpec{"base", &base},
                                 RowSpec{"2P", &twop},
                                 RowSpec{"2Pre", &twopre}}) {
            std::vector<std::string> cells{name, r.cfg};
            auto breakdown =
                sim::fig6Cells(r.o->cycles, base.run.cycles);
            cells.insert(cells.end(), breakdown.begin(),
                         breakdown.end());
            cells.push_back(sim::fixed(
                base_cycles / static_cast<double>(r.o->run.cycles), 3));
            t.row(cells);
            total_sim_cycles += r.o->run.cycles;
        }

        geo_2p +=
            std::log(base_cycles / static_cast<double>(twop.run.cycles));
        geo_2pre += std::log(base_cycles /
                             static_cast<double>(twopre.run.cycles));
        geo_2pre_over_2p +=
            std::log(static_cast<double>(twop.run.cycles) /
                     static_cast<double>(twopre.run.cycles));
        ++n;

        if (name == "181.mcf") {
            const auto base_mem =
                base.cycles.of(cpu::CycleClass::kLoadStall);
            const auto twop_mem =
                twop.cycles.of(cpu::CycleClass::kLoadStall);
            mcf_mem_reduction = 1.0 - static_cast<double>(twop_mem) /
                                          static_cast<double>(base_mem);
            mcf_cycle_reduction =
                1.0 -
                static_cast<double>(twop.run.cycles) / base_cycles;
        }
    }

    std::printf("%s\n", t.render().c_str());
    std::printf("S3  181.mcf memory-stall-cycle reduction (2P vs "
                "base): %s   [paper: 62%%]\n",
                sim::pct(mcf_mem_reduction).c_str());
    std::printf("S3  181.mcf total-cycle reduction (2P vs base): %s   "
                "[paper: 23%%]\n",
                sim::pct(mcf_cycle_reduction).c_str());
    std::printf("S4  geomean speedup 2P   over base: %s\n",
                sim::fixed(std::exp(geo_2p / n), 3).c_str());
    std::printf("S4  geomean speedup 2Pre over base: %s\n",
                sim::fixed(std::exp(geo_2pre / n), 3).c_str());
    std::printf("S4  geomean speedup 2Pre over 2P:   %s   [paper: "
                "1.08]\n",
                sim::fixed(std::exp(geo_2pre_over_2p / n), 3).c_str());

    const double wall =
        std::chrono::duration<double>(t1 - t0).count();
    const unsigned jobs = sim::resolveJobs(jobs_flag);
    std::printf("\n[engine] %zu sims on %u job%s: %.2f s wall, "
                "%.3g sim-cycles/s",
                outcomes.size(), jobs, jobs == 1 ? "" : "s", wall,
                static_cast<double>(total_sim_cycles) / wall);
    if (sim::resultCacheEnabled()) {
        std::printf(", cache %llu hit%s / %llu miss%s",
                    static_cast<unsigned long long>(cache.hits),
                    cache.hits == 1 ? "" : "s",
                    static_cast<unsigned long long>(cache.misses),
                    cache.misses == 1 ? "" : "es");
    }
    std::printf("\n");
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
            "  \"bench\": \"fig6\",\n"
            "  \"scale\": %d,\n"
            "  \"jobs\": %u,\n"
            "  \"sims\": %zu,\n"
            "  \"wallSeconds\": %.3f,\n"
            "  \"simCycles\": %llu,\n"
            "  \"simCyclesPerSec\": %.0f,\n"
            "  \"warmupCycles\": %llu,\n"
            "  \"cacheHits\": %llu,\n"
            "  \"cacheMisses\": %llu\n"
            "}\n",
            scale, jobs, outcomes.size(), wall,
            static_cast<unsigned long long>(total_sim_cycles),
            static_cast<double>(total_sim_cycles) / wall,
            static_cast<unsigned long long>(warmup_cycles),
            static_cast<unsigned long long>(cache.hits),
            static_cast<unsigned long long>(cache.misses));
        std::fclose(f);
    }
    return 0;
}
