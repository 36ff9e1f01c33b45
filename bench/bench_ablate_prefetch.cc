/**
 * @file
 * Ablation: does a conventional next-line hardware prefetcher subsume
 * two-pass pipelining? The paper positions two-pass against
 * prefetching-style techniques ("effective techniques, such as
 * prefetching..., have been proposed to deal with anticipable,
 * long-latency misses" — but the short, diffuse stalls are the
 * two-pass target). This sweep runs base and 2P with next-line
 * prefetch degrees 0/1/2/4.
 *
 * Usage: bench_ablate_prefetch [--jobs N] [scale-percent]
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
    const std::vector<unsigned> degrees = {0, 1, 2, 4};

    std::printf("=== Ablation: next-line prefetching vs two-pass "
                "(cycles normalized to base/no-prefetch) ===\n\n");
    sim::TextTable t;
    std::vector<std::string> hdr = {"benchmark"};
    for (unsigned d : degrees)
        hdr.push_back("base-pf" + std::to_string(d));
    for (unsigned d : degrees)
        hdr.push_back("2P-pf" + std::to_string(d));
    t.header(hdr);

    const std::vector<workloads::Workload> suite =
        sim::buildWorkloadsParallel(workloads::workloadNames(), scale);
    std::vector<sim::SweepVariant> variants;
    for (sim::CpuKind kind :
         {sim::CpuKind::kBaseline, sim::CpuKind::kTwoPass}) {
        for (unsigned d : degrees) {
            cpu::CoreConfig cfg = sim::table1Config();
            cfg.mem.prefetchDegree = d;
            variants.push_back({kind, cfg});
        }
    }
    const std::vector<sim::SimOutcome> outcomes =
        sim::runSweep(suite, variants);

    for (std::size_t wi = 0; wi < suite.size(); ++wi) {
        std::vector<std::string> row = {suite[wi].name};
        double norm = 0.0;
        for (std::size_t vi = 0; vi < variants.size(); ++vi) {
            const double c = static_cast<double>(
                outcomes[wi * variants.size() + vi].run.cycles);
            if (norm == 0.0)
                norm = c;
            row.push_back(sim::fixed(c / norm, 3));
        }
        t.row(row);
    }
    std::printf("%s", t.render().c_str());
    std::printf("\n(expected: prefetching helps the streaming code "
                "(183.equake) in both machines but does little for "
                "random-access misses (181.mcf) or L2-hit probes "
                "(129.compress) -- two-pass keeps its advantage, and "
                "the techniques compose)\n");
    return 0;
}
