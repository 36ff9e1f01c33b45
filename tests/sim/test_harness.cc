/** @file Unit tests for the experiment harness and machine configs. */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/serialize.hh"
#include "compiler/scheduler.hh"
#include "cpu/core/model_factory.hh"
#include "isa/builder.hh"
#include "sim/harness.hh"
#include "sim/machine_config.hh"
#include "workloads/workload.hh"

namespace
{

using namespace ff;
using namespace ff::isa;

Program
tinyProgram()
{
    ProgramBuilder b("tiny");
    b.movi(intReg(1), 41);
    b.addi(intReg(2), intReg(1), 1);
    b.movi(intReg(3), 0x100);
    b.st8(intReg(3), 0, intReg(2));
    b.halt();
    return compiler::schedule(b.finalize());
}

TEST(Harness, CpuKindNames)
{
    EXPECT_STREQ(sim::cpuKindName(sim::CpuKind::kBaseline), "base");
    EXPECT_STREQ(sim::cpuKindName(sim::CpuKind::kTwoPass), "2P");
    EXPECT_STREQ(sim::cpuKindName(sim::CpuKind::kTwoPassRegroup),
                 "2Pre");
    EXPECT_STREQ(sim::cpuKindName(sim::CpuKind::kRunahead),
                 "runahead");
}

TEST(Harness, SimulateFillsOutcome)
{
    const Program p = tinyProgram();
    const sim::SimOutcome o = sim::simulate(p, sim::CpuKind::kTwoPass);
    EXPECT_TRUE(o.run.halted);
    EXPECT_GT(o.run.cycles, 0u);
    EXPECT_EQ(o.run.instsRetired, 5u);
    EXPECT_EQ(o.checksum, 42u);
    EXPECT_EQ(o.cycles.total(), o.run.cycles);
    EXPECT_NE(o.regFingerprint, 0u);
    EXPECT_NE(o.memFingerprint, 0u);
}

std::vector<std::uint8_t>
imageBytes(const Program &p)
{
    serial::Writer w;
    p.dataImage().save(w);
    return w.take();
}

TEST(Harness, ModelIgnoresPokesToItsProgramAfterBuild)
{
    // Models copy the image's page table, so an in-place poke of the
    // program afterwards must clone the program's page, not the
    // model's.
    const workloads::Workload w = workloads::buildWorkload("181.mcf", 6);
    Program prog = w.program;
    const std::unique_ptr<cpu::CpuModel> model = cpu::makeModel(
        sim::CpuKind::kTwoPass, prog, sim::table1Config());

    std::vector<Addr> bases;
    prog.dataImage().forEachPage(
        [&bases](Addr base, const std::uint8_t *) {
            bases.push_back(base);
        });
    ASSERT_FALSE(bases.empty());
    for (const Addr b : bases)
        prog.poke64(b, ~prog.dataImage().read64(b));

    EXPECT_EQ(model->memState().read64(bases.front()),
              w.program.dataImage().read64(bases.front()));
    EXPECT_EQ(model->memState().fingerprint(),
              w.program.dataImage().fingerprint());
    ASSERT_TRUE(model->run(sim::kDefaultMaxCycles).halted);
    EXPECT_EQ(model->memState().fingerprint(),
              sim::runFunctional(w.program).memFingerprint);
}

TEST(Harness, RunsLeaveTheProgramImageUnchanged)
{
    const workloads::Workload w = workloads::buildWorkload("181.mcf", 6);
    const std::vector<std::uint8_t> before = imageBytes(w.program);
    const std::uint64_t image_fp = w.program.dataImage().fingerprint();

    const sim::FunctionalOutcome ref = sim::runFunctional(w.program);
    EXPECT_NE(ref.memFingerprint, image_fp) << "the run writes memory";
    for (const sim::CpuKind kind :
         {sim::CpuKind::kBaseline, sim::CpuKind::kTwoPass}) {
        const sim::SimOutcome o = sim::simulate(w.program, kind);
        EXPECT_EQ(o.memFingerprint, ref.memFingerprint);
    }

    EXPECT_EQ(imageBytes(w.program), before);
    EXPECT_EQ(w.program.dataImage().fingerprint(), image_fp);
    EXPECT_EQ(w.program.contentHash(),
              workloads::buildWorkload("181.mcf", 6).program.contentHash());
}

TEST(Harness, RegroupKindSetsRegroupFlag)
{
    // 2Pre must behave like 2P with cfg.regroup forced on, even when
    // the caller passes a config with it off.
    const Program p = tinyProgram();
    cpu::CoreConfig cfg = sim::table1Config();
    cfg.regroup = false;
    const sim::SimOutcome a =
        sim::simulate(p, sim::CpuKind::kTwoPassRegroup, cfg);
    cfg.regroup = true;
    const sim::SimOutcome b =
        sim::simulate(p, sim::CpuKind::kTwoPass, cfg);
    EXPECT_EQ(a.run.cycles, b.run.cycles);
}

TEST(Harness, FunctionalOutcome)
{
    const Program p = tinyProgram();
    const sim::FunctionalOutcome f = sim::runFunctional(p);
    EXPECT_TRUE(f.result.halted);
    EXPECT_EQ(f.checksum, 42u);

    const sim::SimOutcome o = sim::simulate(p, sim::CpuKind::kBaseline);
    EXPECT_EQ(f.regFingerprint, o.regFingerprint);
    EXPECT_EQ(f.memFingerprint, o.memFingerprint);
}

TEST(Harness, TwoPassStatsOnlyForTwoPassKinds)
{
    const Program p = tinyProgram();
    const sim::SimOutcome base =
        sim::simulate(p, sim::CpuKind::kBaseline);
    EXPECT_EQ(base.twopass.dispatched, 0u);
    const sim::SimOutcome twop =
        sim::simulate(p, sim::CpuKind::kTwoPass);
    EXPECT_GT(twop.twopass.dispatched, 0u);
}

TEST(HarnessDeathTest, NonHaltingModelIsFatal)
{
    // A statically terminating loop (so it passes the load-time
    // verifier) whose trip count far exceeds the cycle budget.
    ProgramBuilder b("spin");
    b.movi(intReg(1), 1000000);
    b.label("l");
    b.subi(intReg(1), intReg(1), 1);
    b.cmpi(CmpCond::kGt, predReg(1), predReg(2), intReg(1), 0);
    b.br("l");
    b.pred(predReg(1));
    b.halt();
    const Program p = compiler::schedule(b.finalize());
    EXPECT_EXIT(sim::simulate(p, sim::CpuKind::kBaseline,
                              sim::table1Config(), 500),
                ::testing::ExitedWithCode(1), "did not halt");
}

TEST(MachineConfig, Table1Defaults)
{
    const cpu::CoreConfig cfg = sim::table1Config();
    EXPECT_EQ(cfg.limits.issueWidth, 8u);
    EXPECT_EQ(cfg.limits.aluUnits, 5u);
    EXPECT_EQ(cfg.limits.memUnits, 3u);
    EXPECT_EQ(cfg.limits.fpUnits, 3u);
    EXPECT_EQ(cfg.limits.branchUnits, 3u);
    EXPECT_EQ(cfg.mem.l1d.sizeBytes, 16u * 1024);
    EXPECT_EQ(cfg.mem.l1d.latency, 2u);
    EXPECT_EQ(cfg.mem.l2.sizeBytes, 256u * 1024);
    EXPECT_EQ(cfg.mem.l2.latency, 5u);
    EXPECT_EQ(cfg.mem.l3.sizeBytes, 1536u * 1024);
    EXPECT_EQ(cfg.mem.l3.latency, 15u);
    EXPECT_EQ(cfg.mem.memoryLatency, 145u);
    EXPECT_EQ(cfg.mem.maxOutstandingLoads, 16u);
    EXPECT_EQ(cfg.predictorEntries, 1024u);
    EXPECT_EQ(cfg.couplingQueueSize, 64u);
    EXPECT_EQ(cfg.alatCapacity, 0u); // perfect
}

TEST(MachineConfig, DescriptionMentionsTable1Rows)
{
    const std::string d = sim::describeConfig(sim::table1Config());
    EXPECT_NE(d.find("8-issue, 5 ALU, 3 Memory, 3 FP, 3 Branch"),
              std::string::npos);
    EXPECT_NE(d.find("145 cycles"), std::string::npos);
    EXPECT_NE(d.find("1024-entry gshare"), std::string::npos);
    EXPECT_NE(d.find("perfect"), std::string::npos);
    EXPECT_NE(d.find("64 entry"), std::string::npos);
}

TEST(MachineConfig, DescriptionTracksOverrides)
{
    cpu::CoreConfig cfg = sim::table1Config();
    cfg.alatCapacity = 32;
    cfg.feedbackEnabled = false;
    const std::string d = sim::describeConfig(cfg);
    EXPECT_NE(d.find("32 entries"), std::string::npos);
    EXPECT_NE(d.find("disabled (inf)"), std::string::npos);
}

} // namespace
