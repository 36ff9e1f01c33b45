/**
 * @file
 * Ablation A2 — the fix Section 4 suggests for vpr: "It may
 * therefore be advisable to allow the A-pipe to stall on anticipable
 * latencies, since these latencies are effectively modeled by the
 * compiler." Compares the default greedy A-pipe against one that
 * stalls for in-flight multi-cycle non-load producers instead of
 * deferring their consumers.
 *
 * Usage: bench_ablate_fppolicy [--jobs N] [scale-percent]
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

    std::printf("=== Ablation A2: A-pipe stalls on anticipable "
                "latencies (2P) ===\n\n");
    sim::TextTable t;
    t.header({"benchmark", "base", "2P-defer", "2P-stall", "deferred%",
              "deferred%-stall", "best"});

    const std::vector<workloads::Workload> suite =
        sim::buildWorkloadsParallel(workloads::workloadNames(), scale);
    cpu::CoreConfig stall_cfg = sim::table1Config();
    stall_cfg.aPipeStallsOnAnticipable = true;
    const std::vector<sim::SweepVariant> variants = {
        {sim::CpuKind::kBaseline, {}},
        {sim::CpuKind::kTwoPass, {}},
        {sim::CpuKind::kTwoPass, stall_cfg},
    };
    const std::vector<sim::SimOutcome> outcomes =
        sim::runSweep(suite, variants);

    for (std::size_t wi = 0; wi < suite.size(); ++wi) {
        const std::string &name = suite[wi].name;
        const sim::SimOutcome &base = outcomes[wi * 3 + 0];
        const sim::SimOutcome &defer = outcomes[wi * 3 + 1];
        const sim::SimOutcome &stall = outcomes[wi * 3 + 2];

        const double b = static_cast<double>(base.run.cycles);
        auto frac = [](const cpu::TwoPassStats &s) {
            return s.dispatched == 0
                       ? 0.0
                       : static_cast<double>(s.deferred) / s.dispatched;
        };
        t.row({name, "1.000",
               sim::fixed(static_cast<double>(defer.run.cycles) / b, 3),
               sim::fixed(static_cast<double>(stall.run.cycles) / b, 3),
               sim::pct(frac(defer.twopass)),
               sim::pct(frac(stall.twopass)),
               stall.run.cycles < defer.run.cycles ? "stall" : "defer"});
    }
    std::printf("%s", t.render().c_str());
    std::printf("\n(expected: 'stall' wins on 175.vpr, whose "
                "FP chains otherwise defer wholesale; 'defer' wins "
                "where greed exposes load overlap)\n");
    return 0;
}
