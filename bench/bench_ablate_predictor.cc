/**
 * @file
 * Ablation: predictor quality vs the two-pass design. Because a
 * misprediction that resolves at B-DET pays the lengthened two-pass
 * flush (Sec. 3.6), the two-pass machine is *more* sensitive to
 * predictor quality than the baseline. Sweeps bimodal / gshare /
 * tournament on both machines over the branchy benchmarks.
 *
 * Usage: bench_ablate_predictor [--jobs N] [scale-percent]
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
    const std::vector<branch::PredictorKind> kinds = {
        branch::PredictorKind::kBimodal,
        branch::PredictorKind::kGshare,
        branch::PredictorKind::kTournament,
    };

    std::printf("=== Ablation: direction-predictor quality "
                "(cycles normalized to base/gshare) ===\n\n");
    sim::TextTable t;
    std::vector<std::string> hdr = {"benchmark"};
    for (auto k : kinds)
        hdr.push_back(std::string("base-") +
                      branch::predictorKindName(k));
    for (auto k : kinds)
        hdr.push_back(std::string("2P-") +
                      branch::predictorKindName(k));
    hdr.push_back("misp%-bimodal");
    hdr.push_back("misp%-gshare");
    t.header(hdr);

    const std::vector<workloads::Workload> suite =
        sim::buildWorkloadsParallel(workloads::workloadNames(), scale);
    // Column 0 is the Table 1 design point (base + gshare), used as
    // the normalizer; then the base and 2P predictor sweeps.
    std::vector<sim::SweepVariant> variants;
    variants.push_back({sim::CpuKind::kBaseline, {}});
    for (sim::CpuKind kind :
         {sim::CpuKind::kBaseline, sim::CpuKind::kTwoPass}) {
        for (auto pk : kinds) {
            cpu::CoreConfig cfg = sim::table1Config();
            cfg.predictorKind = pk;
            variants.push_back({kind, cfg});
        }
    }
    const std::vector<sim::SimOutcome> outcomes =
        sim::runSweep(suite, variants);

    for (std::size_t wi = 0; wi < suite.size(); ++wi) {
        const sim::SimOutcome &ref =
            outcomes[wi * variants.size() + 0];
        const double norm = static_cast<double>(ref.run.cycles);

        std::vector<std::string> row = {suite[wi].name};
        double misp_bimodal = 0, misp_gshare = 0;
        for (std::size_t vi = 1; vi < variants.size(); ++vi) {
            const sim::SimOutcome &o =
                outcomes[wi * variants.size() + vi];
            row.push_back(sim::fixed(
                static_cast<double>(o.run.cycles) / norm, 3));
            const auto pk = kinds[(vi - 1) % kinds.size()];
            if (variants[vi].kind == sim::CpuKind::kBaseline &&
                o.branches.lookups > 0) {
                const double rate =
                    static_cast<double>(o.branches.mispredicts) /
                    static_cast<double>(o.branches.lookups);
                if (pk == branch::PredictorKind::kBimodal)
                    misp_bimodal = rate;
                if (pk == branch::PredictorKind::kGshare)
                    misp_gshare = rate;
            }
        }
        row.push_back(sim::pct(misp_bimodal));
        row.push_back(sim::pct(misp_gshare));
        t.row(row);
    }
    std::printf("%s", t.render().c_str());
    std::printf("\n(expected: where bimodal mispredicts more, the "
                "2P column degrades faster than base — the B-DET "
                "lengthening at work; the tournament recovers or "
                "beats gshare)\n");
    return 0;
}
