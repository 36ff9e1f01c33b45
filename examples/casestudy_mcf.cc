/**
 * @file
 * The Figure 1 / Figure 4 case study: watch the two-pass machine
 * execute the mcf-style loop cycle by cycle. Prints the scheduled
 * loop, then the pipeline lanes of its first ~520 cycles, recorded
 * through the core's observer seam, showing A-pipe loads starting
 * misses, consumers being deferred into the coupling queue, and the
 * B-pipe replaying and retiring them behind the miss — the
 * concurrency of Figure 4.
 *
 * Run: ./build/examples/casestudy_mcf
 */

#include <cstdio>

#include "isa/disasm.hh"
#include "sim/harness.hh"
#include "sim/metrics.hh"
#include "sim/pipe_trace.hh"
#include "workloads/workload.hh"

using namespace ff;

int
main()
{
    const workloads::Workload w = workloads::buildWorkload("181.mcf", 3);
    const cpu::CoreConfig cfg = sim::table1Config();

    std::printf("=== The 181.mcf loop after issue-group scheduling "
                "(';;' = stop bit) ===\n\n%s\n",
                isa::disasmProgram(w.program).c_str());

    // Record a window of pipeline activity through the observer seam.
    // The lanes are 160 cycles wide so the deferred consumers' replay
    // and retirement after the ~145-cycle miss stay in view.
    sim::MetricsOptions mopt;
    mopt.pipeview = true;
    sim::MetricsSession session(w.program, cfg, mopt);
    const auto two_pass =
        cpu::makeModel(cpu::CpuKind::kTwoPass, w.program, cfg);
    session.attach(*two_pass);
    const cpu::RunResult r = two_pass->run(520);
    sim::MetricsRecord rec = session.harvest();
    const sim::PipeTrace pt = sim::buildPipeTrace(
        w.program, cfg, cpu::CpuKind::kTwoPass, r.cycles,
        std::move(rec.pipeEvents), rec.pipeDropped, "181.mcf");

    std::printf("=== First ~520 cycles of two-pass execution ===\n"
                "(the ld8 loads pre-execute in the A-pipe and start "
                "their misses; their consumers are deferred (d) into "
                "the coupling\n queue, and the B-pipe retires them (R) "
                "behind the miss, feeding results back to the A-file "
                "(f))\n\n%s\n",
                sim::renderPipeView(pt, 48, 1, 160).c_str());

    // And the quantitative punchline of the case study.
    const sim::SimOutcome base =
        sim::simulate(w.program, sim::CpuKind::kBaseline);
    const sim::SimOutcome twop =
        sim::simulate(w.program, sim::CpuKind::kTwoPass);
    std::printf("=== Outcome ===\nbaseline: %llu cycles\n2P:       "
                "%llu cycles  (%.2fx; loads started in A: %llu, "
                "in B: %llu)\n",
                static_cast<unsigned long long>(base.run.cycles),
                static_cast<unsigned long long>(twop.run.cycles),
                static_cast<double>(base.run.cycles) /
                    static_cast<double>(twop.run.cycles),
                static_cast<unsigned long long>(twop.twopass.loadsInA),
                static_cast<unsigned long long>(twop.twopass.loadsInB));
    return 0;
}
