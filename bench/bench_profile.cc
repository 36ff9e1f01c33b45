/**
 * @file
 * Per-instruction stall attribution across CPU models: runs one
 * bundled workload under base/2P/2Pre with the metrics layer
 * attached (one MetricsRecord per sweep configuration) and prints
 * the top-K stall-attribution tables side by side, plus the
 * occupancy summary the telemetry observer collects. This is the
 * "where did the cycles go" companion to bench_fig6: Figure 6 shows
 * the class breakdown per benchmark, this shows it per static
 * instruction — which loads own the stall cycles and what the
 * two-pass machines did about them.
 *
 * Usage: bench_profile [--jobs N] [--workload NAME] [--top K]
 *                      [--json FILE] [scale-percent]
 * (default workload 181.mcf, scale 25, top 10)
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/cli_number.hh"
#include "sim/batch.hh"
#include "sim/harness.hh"
#include "sim/report.hh"
#include "workloads/workload.hh"

using namespace ff;

namespace
{

/** One-line occupancy digest from the telemetry registry. */
std::string
occupancySummary(const metrics::Registry &reg)
{
    std::string out;
    const auto &hists = reg.histograms();
    const auto add = [&](const char *name, const char *label) {
        const auto it = hists.find(name);
        if (it == hists.end() || it->second.samples() == 0)
            return;
        if (!out.empty())
            out += "  ";
        out += label;
        out += "=";
        out += sim::fixed(it->second.mean(), 2);
        out += " (p95 ";
        out += std::to_string(it->second.quantile(0.95));
        out += ")";
    };
    add("cq_depth", "cq");
    add("inflight_loads", "loads");
    add("pending_feedback", "feedback");
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned jobs_flag = sim::parseJobsFlag(argc, argv);
    std::string workload = "181.mcf";
    std::string json_path;
    unsigned top_k = 10;
    {
        int out = 1;
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--workload") == 0 &&
                i + 1 < argc) {
                workload = argv[++i];
            } else if (std::strcmp(argv[i], "--top") == 0 &&
                       i + 1 < argc) {
                top_k = cli::parseNumber<unsigned>("--top", argv[++i]);
            } else if (std::strcmp(argv[i], "--json") == 0 &&
                       i + 1 < argc) {
                json_path = argv[++i];
            } else {
                argv[out++] = argv[i];
            }
        }
        argc = out;
    }
    const int scale =
        argc > 1 ? cli::parseNumber<int>("scale", argv[1]) : 25;

    std::printf("=== Per-instruction stall attribution: %s "
                "(scale %d%%) ===\n\n",
                workload.c_str(), scale);

    const auto t0 = std::chrono::steady_clock::now();

    const std::vector<workloads::Workload> suite =
        sim::buildWorkloadsParallel({{workload}}, scale);

    sim::MetricsOptions mopt;
    mopt.profile = true;
    mopt.telemetry = true;
    const std::vector<sim::SweepVariant> variants = {
        {sim::CpuKind::kBaseline, {}, mopt},
        {sim::CpuKind::kTwoPass, {}, mopt},
        {sim::CpuKind::kTwoPassRegroup, {}, mopt},
    };
    const std::vector<sim::SimOutcome> outcomes =
        sim::runSweep(suite, variants);

    const auto t1 = std::chrono::steady_clock::now();

    std::uint64_t total_sim_cycles = 0;
    for (const sim::SimOutcome &o : outcomes) {
        if (o.metrics == nullptr) {
            std::fprintf(stderr, "missing metrics record\n");
            return 1;
        }
        total_sim_cycles += o.run.cycles;
        const sim::MetricsRecord &rec = *o.metrics;
        std::printf("--- %s: %llu cycles, ipc %.3f ---\n",
                    sim::cpuKindName(o.kind),
                    static_cast<unsigned long long>(o.run.cycles),
                    o.run.ipc());
        std::printf("occupancy: %s\n",
                    occupancySummary(rec.telemetry).c_str());
        std::printf("%s\n", sim::renderProfileTable(rec, top_k).c_str());
    }

    const double wall =
        std::chrono::duration<double>(t1 - t0).count();
    const unsigned jobs = sim::resolveJobs(jobs_flag);
    std::printf("[engine] %zu sims on %u job%s: %.2f s wall, "
                "%.3g sim-cycles/s\n",
                outcomes.size(), jobs, jobs == 1 ? "" : "s", wall,
                static_cast<double>(total_sim_cycles) / wall);
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
            "  \"bench\": \"profile\",\n"
            "  \"scale\": %d,\n"
            "  \"jobs\": %u,\n"
            "  \"sims\": %zu,\n"
            "  \"wallSeconds\": %.3f,\n"
            "  \"simCycles\": %llu,\n"
            "  \"simCyclesPerSec\": %.0f\n"
            "}\n",
            scale, jobs, outcomes.size(), wall,
            static_cast<unsigned long long>(total_sim_cycles),
            static_cast<double>(total_sim_cycles) / wall);
        std::fclose(f);
    }
    return 0;
}
