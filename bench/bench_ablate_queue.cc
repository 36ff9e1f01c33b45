/**
 * @file
 * Ablation S5 (Sec. 3.1 text): "the queue size was set to 64
 * instructions. The results were not particularly sensitive to
 * reasonable variations in this parameter." Sweeps the coupling
 * queue capacity and reports 2P cycles normalized to the 64-entry
 * design point.
 *
 * Usage: bench_ablate_queue [--jobs N] [scale-percent]
 */

#include <cstdio>
#include <map>
#include <vector>

#include "common/cli_number.hh"
#include "sim/batch.hh"
#include "sim/harness.hh"
#include "sim/report.hh"
#include "workloads/workload.hh"

using namespace ff;

int
main(int argc, char **argv)
{
    sim::parseJobsFlag(argc, argv);
    const int scale =
        argc > 1 ? cli::parseNumber<int>("scale", argv[1]) : 100;
    const std::vector<unsigned> sizes = {16, 32, 48, 64, 96, 128, 256};

    std::printf("=== Ablation S5: coupling queue size (2P cycles, "
                "normalized to 64 entries) ===\n\n");
    sim::TextTable t;
    std::vector<std::string> hdr = {"benchmark"};
    for (unsigned s : sizes)
        hdr.push_back("cq" + std::to_string(s));
    t.header(hdr);

    const std::vector<workloads::Workload> suite =
        sim::buildWorkloadsParallel(workloads::workloadNames(), scale);
    std::vector<sim::SweepVariant> variants;
    for (unsigned s : sizes) {
        cpu::CoreConfig cfg = sim::table1Config();
        cfg.couplingQueueSize = s;
        variants.push_back({sim::CpuKind::kTwoPass, cfg});
    }
    const std::vector<sim::SimOutcome> outcomes =
        sim::runSweep(suite, variants);

    for (std::size_t wi = 0; wi < suite.size(); ++wi) {
        std::map<unsigned, double> cycles;
        for (std::size_t si = 0; si < sizes.size(); ++si) {
            cycles[sizes[si]] = static_cast<double>(
                outcomes[wi * sizes.size() + si].run.cycles);
        }
        std::vector<std::string> row = {suite[wi].name};
        for (unsigned s : sizes)
            row.push_back(sim::fixed(cycles[s] / cycles[64], 3));
        t.row(row);
    }
    std::printf("%s", t.render().c_str());
    std::printf("\n(expected: a shallow basin around the paper's "
                "64-entry choice; very small queues throttle the "
                "A-pipe's lead)\n");
    return 0;
}
