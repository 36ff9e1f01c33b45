/**
 * @file
 * Reproduces Table 2: the benchmark suite, its (synthetic) inputs,
 * and executed-instruction counts — measured on the functional
 * reference at the bench scale.
 *
 * Usage: bench_table2 [--jobs N] [scale-percent]
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

    std::printf("=== Table 2: benchmarks and inputs ===\n\n");
    sim::TextTable t;
    t.header({"Benchmark", "Inputs", "Instructions", "Groups",
              "Branches", "Loads", "Stores", "Checksum"});
    const std::vector<workloads::Workload> suite =
        sim::buildWorkloadsParallel(workloads::workloadNames(), scale);
    std::vector<const isa::Program *> programs;
    for (const workloads::Workload &w : suite)
        programs.push_back(&w.program);
    const std::vector<sim::FunctionalOutcome> funcs =
        sim::runFunctionalBatch(programs);
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const workloads::Workload &w = suite[i];
        const std::string &name = w.name;
        const sim::FunctionalOutcome &f = funcs[i];
        char insts[32];
        std::snprintf(insts, sizeof(insts), "%.2f M",
                      static_cast<double>(f.result.instsExecuted) /
                          1e6);
        t.row({name, w.input, insts,
               std::to_string(f.result.groupsExecuted),
               std::to_string(f.result.branchesExecuted),
               std::to_string(f.result.loadsExecuted),
               std::to_string(f.result.storesExecuted),
               std::to_string(f.checksum)});
    }
    std::printf("%s", t.render().c_str());
    std::printf("\n(scale = %d%% of the default bench-sized inputs; "
                "the paper ran 13M-1145M instruction regions of "
                "SPEC/UMN inputs)\n",
                scale);
    return 0;
}
