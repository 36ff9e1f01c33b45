/**
 * @file
 * Reproduces the paper's Section 1-2 motivation measurements:
 *
 *  M1: "when run-time stall cycles are discounted, the Intel
 *      reference compiler can achieve an average throughput of 2.5
 *      IPC ... run-time stall cycles ... reduc[e] throughput to 1.3
 *      IPC" — compare each benchmark's baseline IPC against the same
 *      machine with a perfect (always-L1) memory system.
 *  M2: "38% of execution cycles are consumed by data memory
 *      access-related stalls ... between 10% and 95% of these stall
 *      cycles are incurred due to accesses satisfied in the
 *      second-level cache" — the stall fraction, and the share of
 *      data-access latency cycles served by the L2.
 *
 * Usage: bench_motivation [--jobs N] [scale-percent]
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

    std::printf("=== Motivation (Secs. 1-2): what unanticipated "
                "latency costs an in-order EPIC core ===\n\n");
    sim::TextTable t;
    t.header({"benchmark", "IPC", "IPC-nostall", "lost", "memstall%",
              "L2-share", "L3-share", "Mem-share"});

    double ipc_sum = 0.0, nostall_sum = 0.0, stall_frac_sum = 0.0;
    unsigned n = 0;

    const std::vector<workloads::Workload> suite =
        sim::buildWorkloadsParallel(workloads::workloadNames(), scale);
    // The "no stall" machine: every level answers in the L1 hit
    // time, so the compiler's schedule runs unperturbed.
    cpu::CoreConfig perfect = sim::table1Config();
    perfect.mem.l2.latency = perfect.mem.l1d.latency;
    perfect.mem.l3.latency = perfect.mem.l1d.latency;
    perfect.mem.memoryLatency = perfect.mem.l1d.latency;
    const std::vector<sim::SweepVariant> variants = {
        {sim::CpuKind::kBaseline, {}},
        {sim::CpuKind::kBaseline, perfect},
    };
    const std::vector<sim::SimOutcome> outcomes =
        sim::runSweep(suite, variants);

    for (std::size_t wi = 0; wi < suite.size(); ++wi) {
        const std::string &name = suite[wi].name;
        const sim::SimOutcome &real = outcomes[wi * 2 + 0];
        const sim::SimOutcome &ideal = outcomes[wi * 2 + 1];

        const double stall_frac =
            static_cast<double>(
                real.cycles.of(cpu::CycleClass::kLoadStall)) /
            static_cast<double>(real.run.cycles);

        // Attribute data-access latency cycles to servicing levels.
        const auto who = static_cast<unsigned>(
            memory::Initiator::kBaseline);
        double level_cycles[memory::kNumMemLevels];
        double beyond_l1 = 0.0;
        for (unsigned l = 0; l < memory::kNumMemLevels; ++l) {
            level_cycles[l] = static_cast<double>(
                real.accesses.weightedCycles[who][l]);
            if (l != 0)
                beyond_l1 += level_cycles[l];
        }
        auto share = [&](memory::MemLevel lvl) {
            return beyond_l1 == 0.0
                       ? 0.0
                       : level_cycles[static_cast<unsigned>(lvl)] /
                             beyond_l1;
        };

        ipc_sum += real.run.ipc();
        nostall_sum += ideal.run.ipc();
        stall_frac_sum += stall_frac;
        ++n;

        t.row({name, sim::fixed(real.run.ipc(), 2),
               sim::fixed(ideal.run.ipc(), 2),
               sim::pct(1.0 - real.run.ipc() / ideal.run.ipc()),
               sim::pct(stall_frac),
               sim::pct(share(memory::MemLevel::kL2)),
               sim::pct(share(memory::MemLevel::kL3)),
               sim::pct(share(memory::MemLevel::kMemory))});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("M1  mean IPC %.2f with real memory vs %.2f with "
                "perfect memory   [paper: 1.3 vs 2.5 on Itanium 2]\n",
                ipc_sum / n, nostall_sum / n);
    std::printf("M2  mean data-stall fraction %s   [paper: 38%%]\n",
                sim::pct(stall_frac_sum / n).c_str());
    std::printf("M2  L2 share of beyond-L1 access cycles spans the "
                "benchmarks   [paper: 10%%-95%% of stalls from "
                "L2-satisfied accesses]\n");
    return 0;
}
