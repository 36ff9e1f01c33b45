/**
 * @file
 * Ablation A3 — the Section 2 comparison: checkpoint-based run-ahead
 * (Dundas/Mutlu-style) versus two-pass pipelining. Run-ahead also
 * warms the caches during stalls but discards its work and refetches
 * on exit; two-pass retains pre-executed results. Expected shape:
 * run-ahead sits between the baseline and 2P on miss-dominated
 * benchmarks.
 *
 * Usage: bench_runahead [--jobs N] [scale-percent]
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

    std::printf("=== A3: run-ahead vs two-pass (cycles normalized to "
                "base) ===\n\n");
    sim::TextTable t;
    t.header({"benchmark", "base", "runahead", "2P", "2Pre",
              "ra-episodes", "ra-cycles%"});

    const std::vector<workloads::Workload> suite =
        sim::buildWorkloadsParallel(workloads::workloadNames(), scale);
    const std::vector<sim::SweepVariant> variants = {
        {sim::CpuKind::kBaseline, {}},
        {sim::CpuKind::kRunahead, {}},
        {sim::CpuKind::kTwoPass, {}},
        {sim::CpuKind::kTwoPassRegroup, {}},
    };
    const std::vector<sim::SimOutcome> outcomes =
        sim::runSweep(suite, variants);

    for (std::size_t wi = 0; wi < suite.size(); ++wi) {
        const std::string &name = suite[wi].name;
        const sim::SimOutcome &base = outcomes[wi * 4 + 0];
        const sim::SimOutcome &ra = outcomes[wi * 4 + 1];
        const sim::SimOutcome &twop = outcomes[wi * 4 + 2];
        const sim::SimOutcome &twopre = outcomes[wi * 4 + 3];

        const double b = static_cast<double>(base.run.cycles);
        t.row({name, "1.000",
               sim::fixed(static_cast<double>(ra.run.cycles) / b, 3),
               sim::fixed(static_cast<double>(twop.run.cycles) / b, 3),
               sim::fixed(static_cast<double>(twopre.run.cycles) / b,
                          3),
               std::to_string(ra.runahead.episodes),
               sim::pct(static_cast<double>(ra.runahead.runaheadCycles) /
                        static_cast<double>(ra.run.cycles))});
    }
    std::printf("%s", t.render().c_str());
    return 0;
}
