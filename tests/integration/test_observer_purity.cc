/**
 * @file
 * The observer-purity guarantee: CoreObserver clients are strictly
 * read-only, so attaching the full metrics stack (profile +
 * telemetry observers through a MetricsSession) must leave every
 * architectural and statistical output of a run bit-identical to an
 * unobserved run — sim::statsReport() text, cycle counts, and state
 * fingerprints — for every model kind on every bundled workload.
 * This is the regression wall behind "metrics are free to leave on":
 * an observer that mutates model state, or a model change that
 * branches on observer presence, fails here.
 */

#include <gtest/gtest.h>

#include <string>

#include "cpu/core/model_factory.hh"
#include "sim/harness.hh"
#include "workloads/workload.hh"

namespace
{

using namespace ff;

/** Everything a run can tell us, as one comparable record. */
struct RunRecord
{
    cpu::RunResult run;
    std::string stats;
    std::uint64_t regFingerprint = 0;
    std::uint64_t memFingerprint = 0;
};

RunRecord
runModel(const isa::Program &prog, cpu::CpuKind kind, bool observed)
{
    const cpu::CoreConfig cfg;
    auto model = cpu::makeModel(kind, prog, cfg);

    sim::MetricsOptions mopt;
    mopt.profile = observed;
    mopt.telemetry = observed;
    sim::MetricsSession session(prog, cfg, mopt);
    session.attach(*model);

    RunRecord rec;
    rec.run = model->run(20'000'000);
    if (session.attached())
        session.harvest();
    rec.stats = sim::statsReport(sim::collectOutcome(*model, kind, rec.run));
    rec.regFingerprint = model->archRegs().fingerprint();
    rec.memFingerprint = model->memState().fingerprint();
    return rec;
}

class ObserverPurityTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ObserverPurityTest, StatsBitIdenticalWithObserversAttached)
{
    const workloads::Workload w =
        workloads::buildWorkload(GetParam(), /*scale=*/3);
    for (unsigned k = 0; k < cpu::kNumCpuKinds; ++k) {
        const cpu::CpuKind kind = static_cast<cpu::CpuKind>(k);
        const RunRecord plain = runModel(w.program, kind, false);
        const RunRecord observed = runModel(w.program, kind, true);
        ASSERT_TRUE(plain.run.halted)
            << w.name << " on " << cpuKindName(kind);
        EXPECT_EQ(plain.run.cycles, observed.run.cycles)
            << w.name << " on " << cpuKindName(kind);
        EXPECT_EQ(plain.run.instsRetired, observed.run.instsRetired)
            << w.name << " on " << cpuKindName(kind);
        EXPECT_EQ(plain.stats, observed.stats)
            << w.name << " on " << cpuKindName(kind);
        EXPECT_EQ(plain.regFingerprint, observed.regFingerprint)
            << w.name << " on " << cpuKindName(kind);
        EXPECT_EQ(plain.memFingerprint, observed.memFingerprint)
            << w.name << " on " << cpuKindName(kind);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ObserverPurityTest,
    ::testing::ValuesIn(workloads::workloadNames()),
    [](const auto &info) {
        std::string n = info.param;
        for (char &c : n)
            if (c == '.')
                c = '_';
        return n;
    });

/** The harness-level path: simulate() with metrics produces the same
 *  aggregate outcome as simulate() without, plus a record whose
 *  attributed + unattributed cycles conserve the run total. */
TEST(ObserverPurity, SimulateOutcomeUnchangedAndCyclesConserve)
{
    const workloads::Workload w =
        workloads::buildWorkload("181.mcf", 3);
    for (const cpu::CpuKind kind :
         {cpu::CpuKind::kBaseline, cpu::CpuKind::kTwoPass,
          cpu::CpuKind::kTwoPassRegroup, cpu::CpuKind::kRunahead}) {
        const sim::SimOutcome plain = sim::simulate(w.program, kind);
        sim::MetricsOptions mopt;
        mopt.profile = true;
        mopt.telemetry = true;
        const sim::SimOutcome metered =
            sim::simulate(w.program, kind, sim::table1Config(),
                          sim::kDefaultMaxCycles, mopt);

        EXPECT_EQ(plain.run.cycles, metered.run.cycles)
            << cpuKindName(kind);
        EXPECT_EQ(plain.regFingerprint, metered.regFingerprint)
            << cpuKindName(kind);
        EXPECT_EQ(plain.memFingerprint, metered.memFingerprint)
            << cpuKindName(kind);
        EXPECT_EQ(plain.checksum, metered.checksum)
            << cpuKindName(kind);
        EXPECT_EQ(plain.metrics, nullptr);

        ASSERT_NE(metered.metrics, nullptr) << cpuKindName(kind);
        const sim::MetricsRecord &rec = *metered.metrics;
        std::uint64_t attributed = 0;
        for (const auto &row : rec.profile)
            attributed += row.prof.totalCycles();
        for (std::uint64_t c : rec.unattributed)
            attributed += c;
        EXPECT_EQ(attributed, metered.run.cycles)
            << cpuKindName(kind);
    }
}

} // namespace
