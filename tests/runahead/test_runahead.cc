/** @file Unit tests for the checkpoint-based run-ahead core. */

#include <gtest/gtest.h>

#include <climits>

#include "compiler/scheduler.hh"
#include "cpu/baseline/baseline_cpu.hh"
#include "cpu/functional/functional_cpu.hh"
#include "cpu/runahead/runahead_cpu.hh"
#include "isa/builder.hh"
#include "workloads/workload.hh"

namespace
{

using namespace ff;
using namespace ff::cpu;
using namespace ff::isa;

/** Computable-index probe loop over a cold 2MB region. */
Program
missLoop(int iters)
{
    ProgramBuilder b("ra");
    b.movi(intReg(1), 0x100000);
    b.movi(intReg(2), iters);
    b.movi(intReg(3), 5);
    b.movi(intReg(31), 0);
    b.label("loop");
    b.addi(intReg(3), intReg(3),
           static_cast<std::int64_t>(0x9E3779B97F4A7C15ULL));
    b.shri(intReg(4), intReg(3), 38);
    b.andi(intReg(4), intReg(4), 32767);
    b.shli(intReg(4), intReg(4), 6);
    b.add(intReg(5), intReg(1), intReg(4));
    b.ld8(intReg(6), intReg(5), 0);
    b.add(intReg(31), intReg(31), intReg(6));
    b.subi(intReg(2), intReg(2), 1);
    b.cmpi(CmpCond::kGt, predReg(1), predReg(2), intReg(2), 0);
    b.br("loop");
    b.pred(predReg(1));
    b.movi(intReg(7), 0x100);
    b.st8(intReg(7), 0, intReg(31));
    b.halt();
    Program seq = b.finalize();
    for (int e = 0; e < 32768; ++e)
        seq.poke64(0x100000 + static_cast<Addr>(e) * 64, e * 3 + 7);
    return compiler::schedule(seq);
}

TEST(Runahead, EntersEpisodesUnderLoadStalls)
{
    const Program p = missLoop(150);
    RunaheadCpu cpu(p, CoreConfig());
    ASSERT_TRUE(cpu.run(10'000'000).halted);
    EXPECT_GT(cpu.runaheadStats().episodes, 20u);
    EXPECT_GT(cpu.runaheadStats().runaheadCycles, 0u);
    EXPECT_GT(cpu.runaheadStats().runaheadLoads, 0u);
}

TEST(Runahead, MatchesFunctionalReference)
{
    const Program p = missLoop(100);
    FunctionalCpu ref(p);
    auto fr = ref.run();
    RunaheadCpu cpu(p, CoreConfig());
    const RunResult r = cpu.run(10'000'000);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.instsRetired, fr.instsExecuted);
    EXPECT_EQ(cpu.archRegs().fingerprint(), ref.regs().fingerprint());
    EXPECT_EQ(cpu.memState().fingerprint(), ref.mem().fingerprint());
}

TEST(Runahead, PrefetchingBeatsTheBaseline)
{
    const Program p = missLoop(200);
    BaselineCpu base(p, CoreConfig());
    const Cycle base_cycles = base.run(10'000'000).cycles;
    RunaheadCpu ra(p, CoreConfig());
    const Cycle ra_cycles = ra.run(10'000'000).cycles;
    // Run-ahead warms the caches during stalls: solidly faster on an
    // overlappable miss stream.
    EXPECT_LT(ra_cycles, base_cycles);
}

/**
 * With run-ahead never entered, the run-ahead core is the baseline
 * core: the same cycles, cycle classes, branch outcomes, memory
 * accesses (under each core's own initiator) and final state.
 */
TEST(Runahead, NormalModeIsTheBaselineCore)
{
    CoreConfig cfg;
    cfg.runaheadEntryDelay = UINT_MAX;
    const auto base_row =
        static_cast<unsigned>(memory::Initiator::kBaseline);
    const auto ra_row =
        static_cast<unsigned>(memory::Initiator::kRunahead);
    for (const std::string &name : workloads::workloadNames()) {
        SCOPED_TRACE(name);
        const workloads::Workload w = workloads::buildWorkload(name, 5);
        BaselineCpu base(w.program, cfg);
        RunaheadCpu ra(w.program, cfg);
        const RunResult rb = base.run(100'000'000);
        const RunResult rr = ra.run(100'000'000);
        ASSERT_TRUE(rb.halted);
        ASSERT_TRUE(rr.halted);
        EXPECT_EQ(ra.runaheadStats().episodes, 0u);

        EXPECT_EQ(rr.cycles, rb.cycles);
        EXPECT_EQ(rr.instsRetired, rb.instsRetired);
        EXPECT_EQ(rr.groupsRetired, rb.groupsRetired);
        EXPECT_EQ(ra.cycleAccounting().counts,
                  base.cycleAccounting().counts);
        EXPECT_EQ(ra.predictor().stats().lookups,
                  base.predictor().stats().lookups);
        EXPECT_EQ(ra.predictor().stats().mispredicts,
                  base.predictor().stats().mispredicts);
        const memory::AccessStats &ab = base.hierarchy().accessStats();
        const memory::AccessStats &ar = ra.hierarchy().accessStats();
        EXPECT_EQ(ar.counts[ra_row], ab.counts[base_row]);
        EXPECT_EQ(ar.weightedCycles[ra_row],
                  ab.weightedCycles[base_row]);
        EXPECT_EQ(ra.archRegs().fingerprint(),
                  base.archRegs().fingerprint());
        EXPECT_EQ(ra.memState().fingerprint(),
                  base.memState().fingerprint());
    }
}

TEST(Runahead, EntryDelayReducesEpisodes)
{
    const Program p = missLoop(100);
    CoreConfig eager;
    eager.runaheadEntryDelay = 0;
    RunaheadCpu cpu_eager(p, eager);
    ASSERT_TRUE(cpu_eager.run(10'000'000).halted);

    CoreConfig lazy;
    lazy.runaheadEntryDelay = 30;
    RunaheadCpu cpu_lazy(p, lazy);
    ASSERT_TRUE(cpu_lazy.run(10'000'000).halted);

    EXPECT_LE(cpu_lazy.runaheadStats().episodes,
              cpu_eager.runaheadStats().episodes);
}

TEST(Runahead, RunaheadStoresNeverCommit)
{
    // A store lies behind the stalled load; run-ahead executes it
    // into the discardable overlay only. After exit it re-executes
    // normally — memory must match the reference exactly (covered by
    // fingerprints) and a sentinel past the program's HALT must stay
    // untouched even though run-ahead may race past it.
    ProgramBuilder b("rastore");
    b.movi(intReg(1), 0x200000);
    b.movi(intReg(2), 0x300000);
    b.ld8(intReg(3), intReg(1), 0);   // cold miss: triggers run-ahead
    b.addi(intReg(4), intReg(3), 1);  // stalls on it
    b.st8(intReg(2), 0, intReg(4));   // executed in run-ahead first
    b.halt();
    Program seq = b.finalize();
    seq.poke64(0x200000, 41);
    const Program p = compiler::schedule(seq);

    RunaheadCpu cpu(p, CoreConfig());
    ASSERT_TRUE(cpu.run(1'000'000).halted);
    EXPECT_EQ(cpu.memState().read64(0x300000), 42u);

    FunctionalCpu ref(p);
    ref.run();
    EXPECT_EQ(cpu.memState().fingerprint(), ref.mem().fingerprint());
}

TEST(Runahead, InvPropagationSkipsDependentLoads)
{
    // A dependent chase cannot be prefetched by run-ahead (addresses
    // are INV): episodes happen but issue few useful loads.
    ProgramBuilder b("chase");
    b.movi(intReg(1), 0x400000);
    b.movi(intReg(2), 20);
    b.label("loop");
    b.ld8(intReg(1), intReg(1), 0); // serial chase
    b.subi(intReg(2), intReg(2), 1);
    b.cmpi(CmpCond::kGt, predReg(1), predReg(2), intReg(2), 0);
    b.br("loop");
    b.pred(predReg(1));
    b.halt();
    Program seq = b.finalize();
    for (int i = 0; i < 30; ++i) {
        seq.poke64(0x400000 + static_cast<Addr>(i) * 0x40000,
                   0x400000 + static_cast<Addr>(i + 1) * 0x40000);
    }
    const Program p = compiler::schedule(seq);

    RunaheadCpu cpu(p, CoreConfig());
    ASSERT_TRUE(cpu.run(10'000'000).halted);
    EXPECT_GT(cpu.runaheadStats().invResults, 0u);
    // The chase itself defeats prefetching: each episode's loads are
    // bounded by what is computable (here almost nothing).
    EXPECT_LT(cpu.runaheadStats().runaheadLoads,
              cpu.runaheadStats().episodes * 3);
}

} // namespace
