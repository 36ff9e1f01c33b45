/**
 * @file
 * Reproduces the in-text scalar statistics of Section 4:
 *
 *  S1: "an average of 32% of branch mispredictions are discovered and
 *      repaired in the A-pipe... 68% remain to be processed in the
 *      B-pipe" — plus the A/B split of *all* branch resolutions.
 *  S2: "97% of all load accesses initiated in the A-pipe while a
 *      deferred store is in the queue are free of store conflicts.
 *      Only 1.6% of all stores are deferred to the B-pipe and
 *      eventually cause a conflict flush."
 *
 * Usage: bench_stats [--jobs N] [scale-percent]
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

    std::printf("=== Section 4 scalar statistics (2P) ===\n\n");
    sim::TextTable t;
    t.header({"benchmark", "misp-A", "misp-B", "misp-A%", "resolve-A%",
              "loads>defSt", "conflicts", "conflict-free%",
              "stores", "st-conflict%"});

    std::uint64_t tot_misp_a = 0, tot_misp_b = 0;
    std::uint64_t tot_past = 0, tot_conf = 0, tot_stores = 0;

    const std::vector<workloads::Workload> suite =
        sim::buildWorkloadsParallel(workloads::workloadNames(), scale);
    const std::vector<sim::SweepVariant> variants = {
        {sim::CpuKind::kTwoPass, {}},
    };
    const std::vector<sim::SimOutcome> outcomes =
        sim::runSweep(suite, variants);

    for (std::size_t wi = 0; wi < suite.size(); ++wi) {
        const std::string &name = suite[wi].name;
        const sim::SimOutcome &o = outcomes[wi];
        const auto &s = o.twopass;

        const std::uint64_t misp = s.aDetMispredicts + s.bDetMispredicts;
        const std::uint64_t resolved =
            s.branchesResolvedInA + s.branchesResolvedInB;
        const std::uint64_t stores = s.storesInA + s.storesInB;
        tot_misp_a += s.aDetMispredicts;
        tot_misp_b += s.bDetMispredicts;
        tot_past += s.loadsPastDeferredStore;
        tot_conf += s.storeConflictFlushes;
        tot_stores += stores;

        t.row({name, std::to_string(s.aDetMispredicts),
               std::to_string(s.bDetMispredicts),
               misp ? sim::pct(static_cast<double>(s.aDetMispredicts) /
                               misp)
                    : "-",
               resolved
                   ? sim::pct(
                         static_cast<double>(s.branchesResolvedInA) /
                         resolved)
                   : "-",
               std::to_string(s.loadsPastDeferredStore),
               std::to_string(s.storeConflictFlushes),
               s.loadsPastDeferredStore
                   ? sim::pct(1.0 -
                              static_cast<double>(
                                  s.storeConflictFlushes) /
                                  s.loadsPastDeferredStore)
                   : "-",
               std::to_string(stores),
               stores ? sim::pct(static_cast<double>(
                                     s.storeConflictFlushes) /
                                 stores)
                      : "-"});
    }
    std::printf("%s\n", t.render().c_str());

    const std::uint64_t tot_misp = tot_misp_a + tot_misp_b;
    std::printf("S1  mispredictions repaired at A-DET: %s   [paper: "
                "32%%]\n",
                tot_misp ? sim::pct(static_cast<double>(tot_misp_a) /
                                    tot_misp)
                             .c_str()
                         : "-");
    std::printf("S1  mispredictions repaired at B-DET: %s   [paper: "
                "68%%]\n",
                tot_misp ? sim::pct(static_cast<double>(tot_misp_b) /
                                    tot_misp)
                             .c_str()
                         : "-");
    std::printf("S2  A-loads past a deferred store that are "
                "conflict-free: %s   [paper: 97%%]\n",
                tot_past ? sim::pct(1.0 - static_cast<double>(tot_conf) /
                                              tot_past)
                             .c_str()
                         : "-");
    std::printf("S2  stores causing a conflict flush: %s   [paper: "
                "1.6%%]\n",
                tot_stores ? sim::pct(static_cast<double>(tot_conf) /
                                      tot_stores)
                               .c_str()
                           : "-");
    return 0;
}
