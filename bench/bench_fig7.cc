/**
 * @file
 * Reproduces Figure 7: the distribution of initiated data-access
 * cycles (access count weighted by the servicing level's latency)
 * split by initiating pipe (A vs B; the whole bar for the baseline),
 * for base / 2P / 2Pre across the suite. The paper's observation to
 * reproduce: "for each benchmark, the majority of the access latency
 * is initiated in the A-pipe" — except gap, which "executes most of
 * its substantial number of main memory accesses in the B-pipe".
 *
 * Usage: bench_fig7 [--jobs N] [scale-percent]
 */

#include <cstdio>
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

double
pipeCycles(const memory::AccessStats &s, memory::Initiator who)
{
    double total = 0;
    for (unsigned l = 0; l < memory::kNumMemLevels; ++l)
        total += static_cast<double>(
            s.weightedCycles[static_cast<unsigned>(who)][l]);
    return total;
}

std::vector<std::string>
levelCells(const memory::AccessStats &s, memory::Initiator who,
           double norm)
{
    std::vector<std::string> cells;
    for (unsigned l = 0; l < memory::kNumMemLevels; ++l) {
        cells.push_back(sim::fixed(
            static_cast<double>(
                s.weightedCycles[static_cast<unsigned>(who)][l]) /
                norm,
            3));
    }
    return cells;
}

} // namespace

int
main(int argc, char **argv)
{
    sim::parseJobsFlag(argc, argv);
    const int scale =
        argc > 1 ? cli::parseNumber<int>("scale", argv[1]) : 100;

    std::printf("=== Figure 7: distribution of initiated access "
                "cycles (latency-weighted, normalized to base) "
                "===\n\n");
    sim::TextTable t;
    t.header({"benchmark", "cfg", "pipe", "L1", "L2", "L3", "Mem",
              "share"});

    const std::vector<workloads::Workload> suite =
        sim::buildWorkloadsParallel(workloads::workloadNames(), scale);
    const std::vector<sim::SweepVariant> variants = {
        {sim::CpuKind::kBaseline, {}},
        {sim::CpuKind::kTwoPass, {}},
        {sim::CpuKind::kTwoPassRegroup, {}},
    };
    const std::vector<sim::SimOutcome> outcomes =
        sim::runSweep(suite, variants);

    for (std::size_t wi = 0; wi < suite.size(); ++wi) {
        const std::string &name = suite[wi].name;
        const sim::SimOutcome &base = outcomes[wi * 3 + 0];
        const double norm =
            pipeCycles(base.accesses, memory::Initiator::kBaseline);

        {
            std::vector<std::string> cells{name, "base", "-"};
            auto lv = levelCells(base.accesses,
                                 memory::Initiator::kBaseline, norm);
            cells.insert(cells.end(), lv.begin(), lv.end());
            cells.push_back("1.000");
            t.row(cells);
        }

        for (std::size_t vi = 1; vi < 3; ++vi) {
            const sim::SimOutcome &o = outcomes[wi * 3 + vi];
            const double a =
                pipeCycles(o.accesses, memory::Initiator::kApipe);
            const double bb =
                pipeCycles(o.accesses, memory::Initiator::kBpipe);
            for (memory::Initiator who :
                 {memory::Initiator::kApipe,
                  memory::Initiator::kBpipe}) {
                std::vector<std::string> cells{
                    name, sim::cpuKindName(variants[vi].kind),
                    who == memory::Initiator::kApipe ? "A" : "B"};
                auto lv = levelCells(o.accesses, who, norm);
                cells.insert(cells.end(), lv.begin(), lv.end());
                const double mine =
                    who == memory::Initiator::kApipe ? a : bb;
                cells.push_back(
                    sim::pct(a + bb > 0 ? mine / (a + bb) : 0.0));
                t.row(cells);
            }
        }
    }
    std::printf("%s", t.render().c_str());
    std::printf("\n('share' is the pipe's fraction of that config's "
                "initiated access cycles; the paper reports an\n"
                " A-pipe majority everywhere but 254.gap)\n");
    return 0;
}
