/**
 * @file
 * Sampled simulation correctness: the checkpoint plan must carry the
 * exact architectural state (warping a model to any checkpoint and
 * running to completion reproduces the reference fingerprints), the
 * estimator must land near ground truth and be bit-identical at any
 * thread count, and sampled results must never collide with full
 * detailed results in the result cache.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cpu/core/model_factory.hh"
#include "sim/batch.hh"
#include "sim/harness.hh"
#include "sim/result_cache.hh"
#include "sim/sampled.hh"
#include "workloads/workload.hh"

namespace
{

using namespace ff;
namespace fs = std::filesystem;

/** Long enough for several sampling strata, short enough for CI. */
constexpr int kScale = 40;

const workloads::Workload &
workload()
{
    static const workloads::Workload w =
        workloads::buildWorkload("181.mcf", kScale);
    return w;
}

sim::SampledOptions
testOptions()
{
    sim::SampledOptions o;
    o.intervalCycles = 8000;
    o.detailCycles = 1000;
    return o;
}

/** A one-job batch sampling workload() under @p kind. */
sim::SimJob
sampledJob(sim::CpuKind kind)
{
    sim::SimJob job;
    job.program = &workload().program;
    job.kind = kind;
    job.cfg = sim::table1Config();
    job.sampled = testOptions();
    return job;
}

TEST(Sampled, NormalizedDerivesDocumentedDefaults)
{
    sim::SampledOptions o;
    o.intervalCycles = 32000;
    const sim::SampledOptions n = o.normalized();
    EXPECT_EQ(n.intervalCycles, 32000u);
    EXPECT_EQ(n.detailCycles, 4000u); // interval / 8
    EXPECT_EQ(n.warmupCycles, 4000u); // detail, floored at 512
    EXPECT_EQ(n.maxIntervals, 64u);

    // Explicit fields survive; maxIntervals floors at 2 (one window
    // has no variance estimate).
    o.detailCycles = 500;
    o.warmupCycles = 250;
    o.maxIntervals = 1;
    const sim::SampledOptions m = o.normalized();
    EXPECT_EQ(m.detailCycles, 500u);
    EXPECT_EQ(m.warmupCycles, 250u);
    EXPECT_EQ(m.maxIntervals, 2u);
}

TEST(Sampled, PlanCheckpointsCarryExactArchState)
{
    // Warp a fresh timed model to each checkpoint's architectural
    // state and run it to completion: the final register and memory
    // fingerprints must equal the functional reference's. This is
    // the foundation the replay phase stands on — a checkpoint that
    // dropped one byte would bias every window after it.
    const workloads::Workload &w = workload();
    const cpu::CoreConfig cfg = sim::table1Config();
    const sim::SampledPlan plan =
        sim::sampledCheckpointPass(w.program, testOptions());
    ASSERT_GE(plan.checkpoints.size(), 3u);

    // Entry checkpoint is pinned at instruction 0 (the exact-prefix
    // estimator depends on it); later ones are jittered into their
    // strata.
    EXPECT_EQ(plan.checkpoints.front().instsBefore, 0u);
    for (std::size_t i = 1; i < plan.checkpoints.size(); ++i) {
        EXPECT_GT(plan.checkpoints[i].instsBefore,
                  plan.checkpoints[i - 1].instsBefore);
    }

    // First, middle, last — a full scan would dominate test time.
    for (const std::size_t i :
         {std::size_t{0}, plan.checkpoints.size() / 2,
          plan.checkpoints.size() - 1}) {
        SCOPED_TRACE("checkpoint " + std::to_string(i));
        const sim::SampledCheckpoint &cp = plan.checkpoints[i];
        const std::unique_ptr<cpu::CpuModel> m = cpu::makeModel(
            sim::CpuKind::kTwoPass, w.program, cfg);
        m->warpArchState(cp.regs, cp.mem, cp.pc);
        m->warmMicroArch(cp.warm);
        const cpu::RunResult run = m->run(sim::kDefaultMaxCycles);
        ASSERT_TRUE(run.halted);
        EXPECT_EQ(run.instsRetired,
                  plan.functional.instsExecuted - cp.instsBefore);
        EXPECT_EQ(m->archRegs().fingerprint(), plan.regFingerprint);
        EXPECT_EQ(m->memState().fingerprint(), plan.memFingerprint);
    }
}

TEST(Sampled, EstimateTracksGroundTruth)
{
    // A loose sanity corridor; the tight 2% accuracy gate runs at
    // bench scale as the sampled_accuracy ctest (bench_sampled).
    const workloads::Workload &w = workload();
    for (const sim::CpuKind kind :
         {sim::CpuKind::kBaseline, sim::CpuKind::kTwoPass}) {
        SCOPED_TRACE(sim::cpuKindName(kind));
        const sim::SimOutcome full = sim::simulate(w.program, kind);
        const sim::SimJob job = sampledJob(kind);
        const sim::SimOutcome est = sim::runBatch(std::span(&job, 1))[0];

        ASSERT_NE(est.sampled, nullptr);
        const sim::SampledEstimate &e = *est.sampled;
        EXPECT_TRUE(est.run.halted);
        // Instruction totals and architectural fingerprints are
        // exact — they come from the functional pass, not sampling.
        EXPECT_EQ(e.totalInsts, full.run.instsRetired);
        EXPECT_EQ(est.run.instsRetired, full.run.instsRetired);
        EXPECT_EQ(est.regFingerprint, full.regFingerprint);
        EXPECT_EQ(est.memFingerprint, full.memFingerprint);
        EXPECT_EQ(est.checksum, full.checksum);

        const double rel =
            std::fabs(e.ipcMean - full.run.ipc()) / full.run.ipc();
        EXPECT_LT(rel, 0.10) << "sampled " << e.ipcMean << " vs full "
                             << full.run.ipc();

        // Internal consistency of the estimate record.
        EXPECT_GT(e.intervalsTotal, 0u);
        EXPECT_LE(e.intervalsMeasured, e.intervalsTotal);
        EXPECT_GE(e.prefixCycles, 1u);
        EXPECT_GE(e.spacing, e.options.intervalCycles);
        EXPECT_NEAR(e.ipcCi95, 1.96 * e.ipcStdErr, 1e-12);
        EXPECT_NEAR(e.ipcMean,
                    static_cast<double>(e.totalInsts) /
                        e.estimatedCycles,
                    1e-9);
        // Cycle-class accounting scales to the estimated length.
        std::uint64_t classes = 0;
        for (const std::uint64_t c : est.cycles.counts)
            classes += c;
        EXPECT_EQ(classes, est.run.cycles);
    }
}

TEST(Sampled, BitIdenticalAtAnyThreadCount)
{
    const sim::SimJob job = sampledJob(sim::CpuKind::kTwoPass);
    const sim::SimOutcome serial =
        sim::runBatch(std::span(&job, 1), /*threads=*/1)[0];
    const sim::SimOutcome pooled =
        sim::runBatch(std::span(&job, 1), /*threads=*/4)[0];

    ASSERT_NE(serial.sampled, nullptr);
    ASSERT_NE(pooled.sampled, nullptr);
    EXPECT_EQ(serial.run.cycles, pooled.run.cycles);
    EXPECT_EQ(serial.cycles.counts, pooled.cycles.counts);
    // Double-precision equality must be exact, not approximate:
    // stitching folds windows in checkpoint order regardless of
    // completion order.
    EXPECT_EQ(serial.sampled->estimatedCycles,
              pooled.sampled->estimatedCycles);
    EXPECT_EQ(serial.sampled->ipcMean, pooled.sampled->ipcMean);
    EXPECT_EQ(serial.sampled->ipcStdDev, pooled.sampled->ipcStdDev);
    EXPECT_EQ(serial.sampled->sampledCycles,
              pooled.sampled->sampledCycles);
}

TEST(Sampled, BatchSharesOnePlanAcrossKinds)
{
    // Three sampled jobs over one program: outcomes must equal the
    // standalone estimates (the shared checkpoint plan is a pure
    // function of program and sampling options, never of the kind).
    const sim::CpuKind kinds[] = {sim::CpuKind::kBaseline,
                                  sim::CpuKind::kTwoPass,
                                  sim::CpuKind::kTwoPassRegroup};
    std::vector<sim::SimJob> jobs;
    for (const sim::CpuKind kind : kinds)
        jobs.push_back(sampledJob(kind));
    const std::vector<sim::SimOutcome> batch =
        sim::runBatch(jobs, /*threads=*/2);
    ASSERT_EQ(batch.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(sim::cpuKindName(kinds[i]));
        const sim::SimOutcome alone =
            sim::runBatch(std::span(&jobs[i], 1))[0];
        ASSERT_NE(batch[i].sampled, nullptr);
        EXPECT_EQ(batch[i].run.cycles, alone.run.cycles);
        EXPECT_EQ(batch[i].sampled->ipcMean, alone.sampled->ipcMean);
        EXPECT_EQ(batch[i].sampled->estimatedCycles,
                  alone.sampled->estimatedCycles);
    }
}

TEST(Sampled, CacheKeysSeparateSampledFromFullAndAcrossConfigs)
{
    const isa::Program &p = workload().program;
    const cpu::CoreConfig cfg = sim::table1Config();
    const std::string full_key = sim::resultCacheKey(
        p, sim::CpuKind::kTwoPass, cfg, sim::kDefaultMaxCycles);
    const std::string sampled_key = sim::resultCacheKey(
        p, sim::CpuKind::kTwoPass, cfg, sim::kDefaultMaxCycles,
        testOptions());
    EXPECT_NE(full_key, sampled_key);

    // Different sampling parameters are different estimates.
    sim::SampledOptions other = testOptions();
    other.intervalCycles *= 2;
    EXPECT_NE(sampled_key,
              sim::resultCacheKey(p, sim::CpuKind::kTwoPass, cfg,
                                  sim::kDefaultMaxCycles, other));

    // Normalization happens before keying: spelling the derived
    // defaults out changes nothing.
    EXPECT_EQ(sampled_key,
              sim::resultCacheKey(p, sim::CpuKind::kTwoPass, cfg,
                                  sim::kDefaultMaxCycles,
                                  testOptions().normalized()));
}

TEST(Sampled, CacheRoundTripPreservesTheEstimate)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / "ffcache_sampled";
    fs::remove_all(dir);
    sim::setResultCacheDir(dir.string());
    sim::resetResultCacheStats();

    const sim::SimJob job = sampledJob(sim::CpuKind::kTwoPass);
    const sim::SimOutcome miss = sim::runBatch(std::span(&job, 1))[0];
    const sim::SimOutcome hit = sim::runBatch(std::span(&job, 1))[0];
    sim::setResultCacheDir("");
    fs::remove_all(dir);

    const sim::ResultCacheStats stats = sim::resultCacheStats();
    EXPECT_EQ(stats.hits, 1u);
    ASSERT_NE(miss.sampled, nullptr);
    ASSERT_NE(hit.sampled, nullptr);
    EXPECT_EQ(hit.run.cycles, miss.run.cycles);
    EXPECT_EQ(hit.cycles.counts, miss.cycles.counts);
    EXPECT_EQ(hit.sampled->ipcMean, miss.sampled->ipcMean);
    EXPECT_EQ(hit.sampled->ipcCi95, miss.sampled->ipcCi95);
    EXPECT_EQ(hit.sampled->estimatedCycles,
              miss.sampled->estimatedCycles);
    EXPECT_EQ(hit.sampled->spacing, miss.sampled->spacing);
    EXPECT_EQ(hit.sampled->prefixCycles, miss.sampled->prefixCycles);
    EXPECT_EQ(hit.sampled->prefixInsts, miss.sampled->prefixInsts);
    EXPECT_EQ(hit.sampled->totalInsts, miss.sampled->totalInsts);
}

TEST(Sampled, ThinningCapsCheckpointCountAndKeepsEntry)
{
    // A tiny maxIntervals forces geometric thinning: the plan must
    // respect the cap, keep the entry checkpoint (the exact-prefix
    // estimator needs it), and report the doubled spacing.
    const workloads::Workload &w = workload();
    sim::SampledOptions o = testOptions();
    o.maxIntervals = 4;
    const sim::SampledPlan plan =
        sim::sampledCheckpointPass(w.program, o);
    EXPECT_LE(plan.checkpoints.size(), 4u);
    ASSERT_FALSE(plan.checkpoints.empty());
    EXPECT_EQ(plan.checkpoints.front().instsBefore, 0u);
    EXPECT_GE(plan.spacing, o.intervalCycles);
    // Checkpoints stay sorted and inside their doubled strata.
    for (std::size_t i = 1; i < plan.checkpoints.size(); ++i) {
        EXPECT_GE(plan.checkpoints[i].instsBefore, i * plan.spacing);
        EXPECT_LT(plan.checkpoints[i].instsBefore,
                  (i + 1) * plan.spacing);
    }
}

} // namespace
