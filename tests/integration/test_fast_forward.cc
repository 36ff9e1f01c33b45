/**
 * @file
 * The run loop's fast-forward over quiet cycles must be invisible. A
 * model run to HALT in one run() call, which skips every quiet stretch
 * its horizons allow, must match a model run one cycle per run() call,
 * whose budget leaves nothing to skip: same run result, class counts,
 * model statistics, sim::statsReport() text, state fingerprints and full
 * snapshot bytes, for every model kind on every bundled workload and
 * on random programs. With the profile, telemetry and pipeview
 * observers attached, which still see every cycle, the harvested
 * metrics records must match too.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "cpu/core/model_factory.hh"
#include "sim/harness.hh"
#include "sim/metrics.hh"
#include "sim/pipe_trace.hh"
#include "sim/snapshot.hh"
#include "workloads/workload.hh"

#include "support/random_program.hh"

namespace
{

using namespace ff;
using namespace ff::cpu;

/** Everything a run can tell us, as one comparable record. */
struct Outcome
{
    RunResult run;
    CycleAccounting classes;
    std::vector<std::uint8_t> modelStats;
    std::string report;
    std::uint64_t regFingerprint = 0;
    std::uint64_t memFingerprint = 0;
    std::vector<std::uint8_t> snapshot;
    std::string metricsJson;
    std::vector<std::uint8_t> pipeTrace;
};

constexpr std::uint64_t kBudget = 20'000'000;

/**
 * Runs @p kind on @p prog to HALT, in one run() call or one cycle per
 * call (@p stepped), with every metrics observer attached when
 * @p observed.
 */
Outcome
runModel(const isa::Program &prog, CpuKind kind, const CoreConfig &cfg,
         bool stepped, bool observed)
{
    auto model = makeModel(kind, prog, cfg);
    sim::MetricsOptions mopt;
    mopt.profile = mopt.telemetry = mopt.pipeview = observed;
    sim::MetricsSession session(prog, cfg, mopt);
    session.attach(*model);

    Outcome o;
    if (stepped) {
        o.run = model->run(1);
        while (!o.run.halted && o.run.cycles < kBudget) {
            model->rearmResume();
            o.run = model->run(model->currentCycle() + 1);
        }
    } else {
        o.run = model->run(kBudget);
    }
    EXPECT_TRUE(o.run.halted) << cpuKindName(kind);

    o.classes = model->cycleAccounting();
    ModelStats ms;
    model->collectStats(ms);
    serial::Writer w;
    saveStats(w, ms.baseline);
    saveStats(w, ms.twopass);
    memory::saveStats(w, ms.alat);
    saveStats(w, ms.runahead);
    o.modelStats = w.take();
    sim::SimOutcome out = sim::collectOutcome(*model, kind, o.run);
    o.report = sim::statsReport(out);
    o.regFingerprint = model->archRegs().fingerprint();
    o.memFingerprint = model->memState().fingerprint();
    o.snapshot = sim::saveSnapshot(*model, kind, prog, cfg).state;
    if (observed) {
        auto rec = std::make_shared<sim::MetricsRecord>(session.harvest());
        o.pipeTrace = sim::encodePipeTrace(sim::buildPipeTrace(
            prog, cfg, kind, o.run.cycles, rec->pipeEvents,
            rec->pipeDropped, prog.name()));
        out.metrics = rec;
        o.metricsJson = sim::metricsToJson(out, cfg, prog.name());
    }
    return o;
}

/** Compares every output of two runs of one model. */
void
expectSameOutcome(const Outcome &one, const Outcome &stepped)
{
    EXPECT_EQ(one.run.halted, stepped.run.halted);
    EXPECT_EQ(one.run.cycles, stepped.run.cycles);
    EXPECT_EQ(one.run.instsRetired, stepped.run.instsRetired);
    EXPECT_EQ(one.run.groupsRetired, stepped.run.groupsRetired);
    EXPECT_EQ(one.classes.counts, stepped.classes.counts);
    EXPECT_EQ(one.modelStats, stepped.modelStats);
    EXPECT_EQ(one.report, stepped.report);
    EXPECT_EQ(one.regFingerprint, stepped.regFingerprint);
    EXPECT_EQ(one.memFingerprint, stepped.memFingerprint);
    EXPECT_EQ(one.snapshot, stepped.snapshot);
    EXPECT_EQ(one.metricsJson, stepped.metricsJson);
    EXPECT_EQ(one.pipeTrace, stepped.pipeTrace);
}

/**
 * Runs every model kind on @p prog both ways under @p cfg and
 * compares every output.
 */
void
expectSkipInvisible(const isa::Program &prog, bool observed,
                    const CoreConfig &cfg = CoreConfig())
{
    for (unsigned k = 0; k < kNumCpuKinds; ++k) {
        const CpuKind kind = static_cast<CpuKind>(k);
        SCOPED_TRACE(std::string(cpuKindName(kind)) + " on " +
                     prog.name());
        expectSameOutcome(runModel(prog, kind, cfg, false, observed),
                          runModel(prog, kind, cfg, true, observed));
    }
}

TEST(FastForward, OneCycleBudgetsMatchOneRun)
{
    for (const std::string &name : workloads::workloadNames())
        expectSkipInvisible(workloads::buildWorkload(name, 3).program,
                            false);
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        expectSkipInvisible(testsupport::randomProgram(seed), false);
}

TEST(FastForward, ObserversSeeEveryCycle)
{
    for (const char *name : {"181.mcf", "254.gap", "130.li"})
        expectSkipInvisible(workloads::buildWorkload(name, 3).program,
                            true);
}

/**
 * Every knob a horizon reads or bounds: the throttle's exact hold,
 * the A2 ablation's unheld one, the self-check cadence, feedback
 * timing, queue and MSHR pressure, conflict flushes, prefetch fills
 * and a shallow front end.
 */
TEST(FastForward, HoldsUnderEveryConfigKnob)
{
    std::vector<std::pair<const char *, CoreConfig>> configs;
    auto add = [&](const char *name, auto set) {
        CoreConfig cfg;
        set(cfg);
        configs.emplace_back(name, cfg);
    };
    add("throttle", [](CoreConfig &c) { c.aPipeThrottlePercent = 20; });
    add("fp_stall",
        [](CoreConfig &c) { c.aPipeStallsOnAnticipable = true; });
    add("selfcheck", [](CoreConfig &c) { c.selfCheckInterval = 7; });
    add("slow_feedback", [](CoreConfig &c) { c.feedbackLatency = 16; });
    add("no_feedback", [](CoreConfig &c) { c.feedbackEnabled = false; });
    add("tiny_cq", [](CoreConfig &c) { c.couplingQueueSize = 8; });
    add("one_mshr", [](CoreConfig &c) { c.mem.maxOutstandingLoads = 1; });
    add("alat2", [](CoreConfig &c) { c.alatCapacity = 2; });
    add("prefetch", [](CoreConfig &c) { c.mem.prefetchDegree = 2; });
    add("no_waw", [](CoreConfig &c) { c.wawStall = false; });
    add("shallow_fetch", [](CoreConfig &c) {
        c.frontEndDepth = 1;
        c.fetchQueueGroups = 1;
    });
    for (const auto &[name, cfg] : configs) {
        SCOPED_TRACE(name);
        for (const char *w : {"181.mcf", "183.equake"})
            expectSkipInvisible(workloads::buildWorkload(w, 2).program,
                                false, cfg);
        for (std::uint64_t seed = 1; seed <= 3; ++seed)
            expectSkipInvisible(testsupport::randomProgram(seed), false,
                                cfg);
    }
}

} // namespace
