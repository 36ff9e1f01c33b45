/**
 * @file
 * Reproduces Figure 8: the effect of latency on the B-to-A committed-
 * result feedback path. Sweeps the feedback latency over
 * {1, 2, 4, 8, 16, disabled} for three benchmarks and reports the
 * growth in deferred instructions and in runtime, each normalized to
 * the 1-cycle point. The paper's findings to reproduce: the path
 * tolerates moderate latency ("especially up to four clock cycles"),
 * and for mcf removing it entirely grows deferrals by 16% and
 * runtime by 5.5%.
 *
 * Usage: bench_fig8 [--jobs N] [scale-percent]
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

int
main(int argc, char **argv)
{
    sim::parseJobsFlag(argc, argv);
    const int scale =
        argc > 1 ? cli::parseNumber<int>("scale", argv[1]) : 100;
    // The three benchmarks whose A-pipe deferral is most sensitive
    // to the feedback path (the paper likewise showed three).
    const std::vector<std::string> benches = {"181.mcf", "099.go",
                                              "175.vpr"};
    const std::vector<unsigned> latencies = {1, 2, 4, 8, 16};

    std::printf("=== Figure 8: B-to-A feedback latency sweep (2P) "
                "===\n\n");
    sim::TextTable t;
    t.header({"benchmark", "feedback", "deferred", "defer/1cyc",
              "cycles", "cyc/1cyc"});

    const std::vector<workloads::Workload> suite =
        sim::buildWorkloadsParallel(benches, scale);
    // Columns: the latency sweep, then the disabled ("inf") point.
    std::vector<sim::SweepVariant> variants;
    for (unsigned lat : latencies) {
        cpu::CoreConfig cfg = sim::table1Config();
        cfg.feedbackEnabled = true;
        cfg.feedbackLatency = lat;
        variants.push_back({sim::CpuKind::kTwoPass, cfg});
    }
    {
        cpu::CoreConfig cfg = sim::table1Config();
        cfg.feedbackEnabled = false;
        cfg.feedbackLatency = 1;
        variants.push_back({sim::CpuKind::kTwoPass, cfg});
    }
    const std::vector<sim::SimOutcome> outcomes =
        sim::runSweep(suite, variants);

    for (std::size_t wi = 0; wi < suite.size(); ++wi) {
        const std::string &name = suite[wi].name;
        double deferred1 = 0.0, cycles1 = 0.0;
        double d_inf = 0.0, c_inf = 0.0;

        for (std::size_t vi = 0; vi < variants.size(); ++vi) {
            const sim::SimOutcome &o =
                outcomes[wi * variants.size() + vi];
            const bool is_inf = vi == latencies.size();
            char label[16];
            if (is_inf)
                std::snprintf(label, sizeof(label), "inf");
            else
                std::snprintf(label, sizeof(label), "%u",
                              latencies[vi]);
            const double deferred =
                static_cast<double>(o.twopass.deferred);
            const double cycles =
                static_cast<double>(o.run.cycles);
            if (deferred1 == 0.0) {
                deferred1 = deferred;
                cycles1 = cycles;
            }
            if (is_inf) {
                d_inf = deferred;
                c_inf = cycles;
            }
            t.row({name, label, std::to_string(o.twopass.deferred),
                   sim::fixed(deferred / deferred1, 3),
                   std::to_string(o.run.cycles),
                   sim::fixed(cycles / cycles1, 3)});
        }
        if (name == "181.mcf") {
            std::printf("181.mcf without feedback: deferred +%s "
                        "[paper: +16%%], runtime +%s [paper: "
                        "+5.5%%]\n\n",
                        sim::pct(d_inf / deferred1 - 1.0).c_str(),
                        sim::pct(c_inf / cycles1 - 1.0).c_str());
        }
    }
    std::printf("%s", t.render().c_str());
    return 0;
}
