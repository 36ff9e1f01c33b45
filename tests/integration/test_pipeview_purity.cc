/**
 * @file
 * Purity and consistency of the pipeline tracer: attaching a
 * PipeViewObserver (and enabling engine timeline recording) must
 * leave every architectural and statistical output bit-identical to
 * an unobserved run — the tracer is strictly read-only — and the
 * event stream it records must agree with the independently
 * maintained accounting: cycle-class runs tile the whole run,
 * per-instruction defer events match the profile's defer counts, and
 * retired slots sum to the retired instruction count.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "common/engine_trace.hh"
#include "cpu/core/model_factory.hh"
#include "sim/batch.hh"
#include "sim/harness.hh"
#include "sim/pipe_trace.hh"
#include "workloads/workload.hh"

namespace
{

using namespace ff;

/** Bound the tracer's memory across the whole workload sweep. */
constexpr std::size_t kTestMaxEvents = 1u << 16;

/** Everything a run can tell us, as one comparable record. */
struct RunRecord
{
    cpu::RunResult run;
    std::string stats;
    std::uint64_t regFingerprint = 0;
    std::uint64_t memFingerprint = 0;
};

RunRecord
runModel(const isa::Program &prog, cpu::CpuKind kind, bool traced)
{
    const cpu::CoreConfig cfg;
    auto model = cpu::makeModel(kind, prog, cfg);

    sim::MetricsOptions mopt;
    mopt.pipeview = traced;
    mopt.pipeviewMaxEvents = kTestMaxEvents;
    sim::MetricsSession session(prog, cfg, mopt);
    session.attach(*model);
    if (traced)
        engine::traceEnable();

    RunRecord rec;
    rec.run = model->run(20'000'000);
    if (session.attached())
        session.harvest();
    if (traced)
        engine::traceStop();
    rec.stats = sim::statsReport(sim::collectOutcome(*model, kind, rec.run));
    rec.regFingerprint = model->archRegs().fingerprint();
    rec.memFingerprint = model->memState().fingerprint();
    return rec;
}

class PipeViewPurityTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PipeViewPurityTest, TracedRunIsBitIdentical)
{
    const workloads::Workload w =
        workloads::buildWorkload(GetParam(), /*scale=*/3);
    for (unsigned k = 0; k < cpu::kNumCpuKinds; ++k) {
        const cpu::CpuKind kind = static_cast<cpu::CpuKind>(k);
        const RunRecord plain = runModel(w.program, kind, false);
        const RunRecord traced = runModel(w.program, kind, true);
        ASSERT_TRUE(plain.run.halted)
            << w.name << " on " << cpuKindName(kind);
        EXPECT_EQ(plain.run.cycles, traced.run.cycles)
            << w.name << " on " << cpuKindName(kind);
        EXPECT_EQ(plain.run.instsRetired, traced.run.instsRetired)
            << w.name << " on " << cpuKindName(kind);
        EXPECT_EQ(plain.stats, traced.stats)
            << w.name << " on " << cpuKindName(kind);
        EXPECT_EQ(plain.regFingerprint, traced.regFingerprint)
            << w.name << " on " << cpuKindName(kind);
        EXPECT_EQ(plain.memFingerprint, traced.memFingerprint)
            << w.name << " on " << cpuKindName(kind);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, PipeViewPurityTest,
    ::testing::ValuesIn(workloads::workloadNames()),
    [](const auto &info) {
        std::string n = info.param;
        for (char &c : n)
            if (c == '.')
                c = '_';
        return n;
    });

/** The recorded event stream must agree with the run's independently
 *  maintained accounting (and with the ProfileObserver, which walks
 *  the same hooks through entirely separate arithmetic). */
TEST(PipeViewConsistency, EventsMatchProfileAndRunTotals)
{
    const workloads::Workload w =
        workloads::buildWorkload("181.mcf", /*scale=*/2);
    sim::MetricsOptions mopt;
    mopt.profile = true;
    mopt.pipeview = true;
    const sim::SimOutcome out =
        sim::simulate(w.program, cpu::CpuKind::kTwoPass,
                      sim::table1Config(), sim::kDefaultMaxCycles,
                      mopt);
    ASSERT_TRUE(out.run.halted);
    ASSERT_NE(out.metrics, nullptr);
    const sim::MetricsRecord &rec = *out.metrics;
    ASSERT_EQ(rec.pipeDropped, 0u);
    ASSERT_FALSE(rec.pipeEvents.empty());

    // Cycle-class runs tile [first onCycle, run end] with no gaps:
    // each run extends to the next class change, the last to the
    // final cycle of the run.
    std::array<std::uint64_t, cpu::kNumCycleClasses> classCycles{};
    const cpu::PipeEvent *open = nullptr;
    for (const cpu::PipeEvent &e : rec.pipeEvents) {
        if (e.kind != cpu::PipeEventKind::kCycleClass)
            continue;
        if (open != nullptr)
            classCycles[open->a] += e.cycle - open->cycle;
        open = &e;
    }
    ASSERT_NE(open, nullptr);
    classCycles[open->a] += out.run.cycles - open->cycle;
    std::uint64_t classTotal = 0;
    for (const std::uint64_t c : classCycles)
        classTotal += c;
    EXPECT_EQ(classTotal, out.run.cycles);

    // Defer events per static index match the profile's defer
    // counts, and retire-event slots sum to instsRetired.
    std::vector<std::uint64_t> defersByIdx(w.program.size(), 0);
    std::uint64_t slotsRetired = 0;
    for (const cpu::PipeEvent &e : rec.pipeEvents) {
        if (e.kind == cpu::PipeEventKind::kDefer)
            ++defersByIdx.at(e.idx);
        else if (e.kind == cpu::PipeEventKind::kRetire)
            slotsRetired += e.b;
    }
    EXPECT_EQ(slotsRetired, out.run.instsRetired);
    for (const sim::MetricsRecord::ProfileRow &row : rec.profile) {
        EXPECT_EQ(defersByIdx.at(row.idx), row.prof.totalDefers())
            << "@" << row.idx << " " << row.text;
    }

    // And the reconstructed lifetimes account for every retired
    // instruction: retired lifetimes == instsRetired.
    const std::vector<sim::PipeLifetime> lives =
        sim::buildPipeLifetimes(rec.pipeEvents);
    std::uint64_t retired = 0;
    for (const sim::PipeLifetime &l : lives)
        if (l.retire != kNeverCycle)
            ++retired;
    EXPECT_EQ(retired, out.run.instsRetired);
}

/** Engine tracing across a parallel batch must not perturb outcomes:
 *  --jobs 1 and --jobs 4 stay bit-identical with the recorder live. */
TEST(PipeViewConsistency, BatchOutcomesUnchangedUnderEngineTracing)
{
    const workloads::Workload w =
        workloads::buildWorkload("181.mcf", 3);
    std::vector<sim::SimJob> jobs;
    for (unsigned k = 0; k < cpu::kNumCpuKinds; ++k) {
        sim::SimJob j;
        j.program = &w.program;
        j.kind = static_cast<cpu::CpuKind>(k);
        j.maxCycles = 20'000'000;
        jobs.push_back(j);
    }

    const std::vector<sim::SimOutcome> serial =
        sim::runBatch(jobs, /*threads=*/1);

    engine::traceEnable();
    const std::vector<sim::SimOutcome> parallel =
        sim::runBatch(jobs, /*threads=*/4);
    const engine::TraceData data = engine::traceStop();

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].run.cycles, parallel[i].run.cycles) << i;
        EXPECT_EQ(serial[i].regFingerprint,
                  parallel[i].regFingerprint)
            << i;
        EXPECT_EQ(serial[i].memFingerprint,
                  parallel[i].memFingerprint)
            << i;
        EXPECT_EQ(serial[i].checksum, parallel[i].checksum) << i;
    }

    // The recorder saw the batch: one "job" span per job, and every
    // span indexes a valid name and lane.
    std::uint64_t jobSpans = 0;
    for (const engine::TraceSpan &s : data.spans) {
        ASSERT_LT(s.name, data.names.size());
        ASSERT_LT(s.lane, data.lanes.size());
        if (data.names[s.name] == "job" && !s.instant)
            ++jobSpans;
    }
    EXPECT_EQ(jobSpans, jobs.size());
}

} // namespace
