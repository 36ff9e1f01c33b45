/**
 * @file
 * Unit tests for the B-to-A committed-result feedback path
 * (Sec. 3.5): DynID-gated application, latency sensitivity, the
 * disabled ("inf") mode, and the revalidation of conservatively
 * cleared destinations of nullified instructions.
 */

#include <gtest/gtest.h>

#include "compiler/scheduler.hh"
#include "cpu/functional/functional_cpu.hh"
#include "cpu/twopass/feedback.hh"
#include "cpu/twopass/twopass_cpu.hh"
#include "isa/builder.hh"

namespace
{

using namespace ff;
using namespace ff::cpu;
using namespace ff::isa;

/**
 * A loop whose accumulator chain passes through a missing load each
 * iteration: r6's chain defers, and only feedback can revalidate it
 * for the A-pipe.
 */
Program
feedbackLoop(int iters)
{
    ProgramBuilder b("fb");
    b.movi(intReg(1), 0x100000);
    b.movi(intReg(5), iters);
    b.movi(intReg(6), 0); // loop-carried through the load's consumer
    b.label("loop");
    b.shli(intReg(2), intReg(5), 13);
    b.add(intReg(3), intReg(1), intReg(2));
    b.ld8(intReg(4), intReg(3), 0);         // cold load
    b.add(intReg(6), intReg(6), intReg(4)); // defers; marks r6
    b.subi(intReg(5), intReg(5), 1);
    b.cmpi(CmpCond::kGt, predReg(1), predReg(2), intReg(5), 0);
    b.br("loop");
    b.pred(predReg(1));
    b.movi(intReg(7), 0x100);
    b.st8(intReg(7), 0, intReg(6));
    b.halt();
    Program seq = b.finalize();
    for (int i = 0; i <= iters; ++i)
        seq.poke64(0x100000 + static_cast<Addr>(i) * 8192, i + 1);
    return compiler::schedule(seq);
}

TEST(Feedback, UpdatesAreAppliedAndDropped)
{
    const Program p = feedbackLoop(40);
    TwoPassCpu cpu(p, CoreConfig());
    ASSERT_TRUE(cpu.run(1'000'000).halted);
    const TwoPassStats &s = cpu.stats();
    EXPECT_GT(s.feedbackApplied, 0u);
    // In a loop, most feedback is stale by arrival (a younger
    // instance re-marked the register) — the DynID gate drops it.
    EXPECT_GT(s.feedbackDropped, 0u);
}

TEST(Feedback, QueueGrowsPastFirstCapacity)
{
    // At bench_fig8's longest latency, 15 cycles of four retirements
    // each are in flight at once: 60 updates, far past the queue's
    // first capacity of 8.
    CoreConfig cfg;
    cfg.feedbackLatency = 16;
    MachineState ms(cfg);
    TwoPassStats stats;
    FeedbackPath fb(cfg, ms, stats);
    constexpr unsigned kRegs = 60;
    ProgramBuilder b("dsts");
    for (unsigned r = 1; r <= kRegs; ++r)
        b.movi(intReg(r), 0);
    b.halt();
    const Program p = b.finalize();

    for (unsigned r = 1; r <= kRegs; ++r) {
        const DynId id = r;
        ms.afile.markDeferred(intReg(r), id); // feedback owns r
        ms.regs.write(intReg(r), 1000 + r);
        fb.schedule(p.decoded(r - 1), id, /*now=*/(r - 1) / 4);
    }
    ASSERT_EQ(fb.size(), kRegs);
    fb.squashYoungerThan(kRegs - 4); // drops the last cycle's four
    EXPECT_EQ(fb.size(), kRegs - 4);

    fb.apply(15);
    EXPECT_EQ(stats.feedbackApplied, 0u);
    fb.apply(16); // cycle 0's four
    EXPECT_EQ(stats.feedbackApplied, 4u);
    fb.apply(100);
    EXPECT_EQ(stats.feedbackApplied, kRegs - 4);
    EXPECT_TRUE(fb.empty());
    for (unsigned r = 1; r <= kRegs - 4; ++r) {
        ASSERT_TRUE(ms.afile.valid(intReg(r)));
        EXPECT_EQ(ms.afile.read(intReg(r)), 1000u + r);
    }
    EXPECT_FALSE(ms.afile.valid(intReg(kRegs)));
}

TEST(Feedback, DisabledModeDefersMore)
{
    // Steady-state loops re-mark their loop-carried registers before
    // feedback lands (DynID-dropped), so feedback shows its value on
    // code with pipeline drains: put a (mispredictable) data-
    // dependent branch in the loop. After each flush the A-pipe
    // restarts behind the B-pipe and feedback revalidates the carried
    // chain before the next dynamic instance dispatches.
    ProgramBuilder b("fbflush");
    b.movi(intReg(1), 0x100000);
    b.movi(intReg(5), 80);
    b.movi(intReg(6), 0);
    b.label("loop");
    b.shli(intReg(2), intReg(5), 13);
    b.add(intReg(3), intReg(1), intReg(2));
    b.ld8(intReg(4), intReg(3), 0);
    b.add(intReg(6), intReg(6), intReg(4));
    b.andi(intReg(7), intReg(4), 1);
    b.cmpi(CmpCond::kEq, predReg(3), predReg(4), intReg(7), 1);
    b.br("skip");
    b.pred(predReg(3));
    b.xori(intReg(6), intReg(6), 0x55);
    b.label("skip");
    b.subi(intReg(5), intReg(5), 1);
    b.cmpi(CmpCond::kGt, predReg(1), predReg(2), intReg(5), 0);
    b.br("loop");
    b.pred(predReg(1));
    b.halt();
    Program seq = b.finalize();
    for (int i = 0; i <= 81; ++i)
        seq.poke64(0x100000 + static_cast<Addr>(i) * 8192,
                   i * 2654435761ULL);
    const Program p = compiler::schedule(seq);

    CoreConfig on;
    TwoPassCpu cpu_on(p, on);
    ASSERT_TRUE(cpu_on.run(1'000'000).halted);

    CoreConfig off;
    off.feedbackEnabled = false;
    TwoPassCpu cpu_off(p, off);
    ASSERT_TRUE(cpu_off.run(1'000'000).halted);

    // The Figure 8 "inf" point: no feedback -> more deferrals.
    EXPECT_GT(cpu_off.stats().deferred, cpu_on.stats().deferred);
    EXPECT_EQ(cpu_off.stats().feedbackApplied, 0u);

    // Both remain architecturally correct.
    FunctionalCpu ref(p);
    ref.run();
    EXPECT_EQ(cpu_on.archRegs().fingerprint(),
              ref.regs().fingerprint());
    EXPECT_EQ(cpu_off.archRegs().fingerprint(),
              ref.regs().fingerprint());
}

TEST(Feedback, LatencyIsMonotonicInDeferrals)
{
    const Program p = feedbackLoop(60);
    std::uint64_t last_deferred = 0;
    for (unsigned lat : {1u, 8u, 32u}) {
        CoreConfig cfg;
        cfg.feedbackLatency = lat;
        TwoPassCpu cpu(p, cfg);
        ASSERT_TRUE(cpu.run(1'000'000).halted);
        EXPECT_GE(cpu.stats().deferred, last_deferred);
        last_deferred = cpu.stats().deferred;
    }
}

TEST(Feedback, NullifiedDeferredInstructionRevalidates)
{
    // A deferred, predicate-FALSE instruction writes nothing, yet its
    // destination was conservatively invalidated at dispatch. The
    // feedback of the (unchanged) architectural value must revalidate
    // it so consumers can pre-execute again.
    ProgramBuilder b("nullfb");
    b.movi(intReg(1), 0x200000);
    b.movi(intReg(6), 500);   // the value r6 keeps
    b.movi(intReg(5), 6);
    b.movi(intReg(31), 0);
    b.label("loop");
    b.shli(intReg(2), intReg(5), 13);
    b.add(intReg(3), intReg(1), intReg(2));
    b.ld8(intReg(4), intReg(3), 0); // cold load
    b.cmpi(CmpCond::kGt, predReg(3), predReg(4), intReg(4),
           0x7FFFFFFF);              // always false
    b.mov(intReg(6), intReg(4));
    b.pred(predReg(3));              // nullified write to r6, deferred
    b.add(intReg(31), intReg(31), intReg(6)); // consumer of r6
    b.subi(intReg(5), intReg(5), 1);
    b.cmpi(CmpCond::kGt, predReg(1), predReg(2), intReg(5), 0);
    b.br("loop");
    b.pred(predReg(1));
    b.halt();
    Program seq = b.finalize();
    for (int i = 0; i <= 7; ++i)
        seq.poke64(0x200000 + static_cast<Addr>(i) * 8192, i + 9);
    const Program p = compiler::schedule(seq);

    TwoPassCpu cpu(p, CoreConfig());
    ASSERT_TRUE(cpu.run(1'000'000).halted);
    // r6 stayed 500 throughout; 6 iterations accumulate 3000.
    EXPECT_EQ(cpu.archRegs().read(intReg(31)), 3000u);

    FunctionalCpu ref(p);
    ref.run();
    EXPECT_EQ(cpu.archRegs().fingerprint(), ref.regs().fingerprint());
}

TEST(Feedback, RuntimeTolerantOfModerateLatency)
{
    // The paper's Figure 8 conclusion: the path tolerates a few
    // cycles of latency. Runtime at latency 4 must be within a few
    // percent of latency 1.
    const Program p = feedbackLoop(60);
    CoreConfig l1;
    l1.feedbackLatency = 1;
    TwoPassCpu cpu1(p, l1);
    const Cycle c1 = cpu1.run(1'000'000).cycles;

    CoreConfig l4;
    l4.feedbackLatency = 4;
    TwoPassCpu cpu4(p, l4);
    const Cycle c4 = cpu4.run(1'000'000).cycles;

    EXPECT_LE(c4, c1 + c1 / 10);
}

} // namespace
