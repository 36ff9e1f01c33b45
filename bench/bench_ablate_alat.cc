/**
 * @file
 * Ablation A1: finite ALAT capacity. Table 1 models a perfect ALAT
 * (no capacity conflicts); here a FIFO-evicting table of decreasing
 * size shows how capacity evictions manifest as false-positive
 * conflict flushes (safe but slower).
 *
 * Usage: bench_ablate_alat [--jobs N] [scale-percent]
 */

#include <cstdio>
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
    // 0 = perfect; then shrinking real tables.
    const std::vector<unsigned> caps = {0, 16, 8, 4, 2};

    std::printf("=== Ablation A1: ALAT capacity (2P) ===\n\n");
    sim::TextTable t;
    t.header({"benchmark", "alat", "conflicts", "capacity-evict",
              "cycles", "vs-perfect"});

    const std::vector<workloads::Workload> suite =
        sim::buildWorkloadsParallel(workloads::workloadNames(), scale);
    std::vector<sim::SweepVariant> variants;
    for (unsigned cap : caps) {
        cpu::CoreConfig cfg = sim::table1Config();
        cfg.alatCapacity = cap;
        variants.push_back({sim::CpuKind::kTwoPass, cfg});
    }
    const std::vector<sim::SimOutcome> outcomes =
        sim::runSweep(suite, variants);

    for (std::size_t wi = 0; wi < suite.size(); ++wi) {
        const std::string &name = suite[wi].name;
        double perfect_cycles = 0.0;
        for (std::size_t ci = 0; ci < caps.size(); ++ci) {
            const unsigned cap = caps[ci];
            const sim::SimOutcome &o =
                outcomes[wi * caps.size() + ci];
            const double cycles = static_cast<double>(o.run.cycles);
            if (cap == 0)
                perfect_cycles = cycles;
            t.row({name,
                   cap == 0 ? std::string("perfect")
                            : std::to_string(cap),
                   std::to_string(o.twopass.storeConflictFlushes),
                   std::to_string(o.alat.capacityEvictions),
                   std::to_string(o.run.cycles),
                   sim::fixed(cycles / perfect_cycles, 3)});
        }
    }
    std::printf("%s", t.render().c_str());
    return 0;
}
