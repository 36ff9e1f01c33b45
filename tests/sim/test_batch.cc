/**
 * @file
 * Tests of the parallel experiment engine: runBatch must return
 * outcomes in submission order and produce bit-identical results
 * regardless of the job count — the property that lets every bench
 * print the same tables at --jobs 1 and --jobs N.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "sim/batch.hh"
#include "sim/harness.hh"
#include "workloads/workload.hh"

namespace
{

using namespace ff;

constexpr int kScale = 6;

std::vector<sim::SimJob>
suiteJobs(const std::vector<workloads::Workload> &suite)
{
    std::vector<sim::SimJob> jobs;
    for (const workloads::Workload &w : suite) {
        for (sim::CpuKind kind :
             {sim::CpuKind::kBaseline, sim::CpuKind::kTwoPass,
              sim::CpuKind::kTwoPassRegroup, sim::CpuKind::kRunahead}) {
            sim::SimJob j;
            j.program = &w.program;
            j.kind = kind;
            jobs.push_back(j);
        }
    }
    return jobs;
}

void
expectIdentical(const std::vector<sim::SimOutcome> &a,
                const std::vector<sim::SimOutcome> &b,
                const std::string &label)
{
    ASSERT_EQ(a.size(), b.size()) << label;
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(label + ", outcome " + std::to_string(i));
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].run.cycles, b[i].run.cycles);
        EXPECT_EQ(a[i].run.instsRetired, b[i].run.instsRetired);
        EXPECT_EQ(a[i].regFingerprint, b[i].regFingerprint);
        EXPECT_EQ(a[i].memFingerprint, b[i].memFingerprint);
        EXPECT_EQ(a[i].checksum, b[i].checksum);
        EXPECT_EQ(a[i].twopass.deferred, b[i].twopass.deferred);
        EXPECT_EQ(a[i].twopass.dispatched, b[i].twopass.dispatched);
        EXPECT_EQ(a[i].branches.mispredicts, b[i].branches.mispredicts);
    }
}

TEST(Batch, EmptyBatchReturnsEmpty)
{
    EXPECT_TRUE(sim::runBatch({}).empty());
    EXPECT_TRUE(sim::runBatch({}, 4).empty());
}

TEST(Batch, DeterministicAcrossJobCountsAndRepeats)
{
    // A couple of workloads x all four models, serially, on 4 jobs,
    // and again on 4 jobs: all three runs must agree bit for bit.
    std::vector<workloads::Workload> suite;
    suite.push_back(workloads::buildWorkload("181.mcf", kScale));
    suite.push_back(workloads::buildWorkload("129.compress", kScale));
    const std::vector<sim::SimJob> jobs = suiteJobs(suite);

    const auto serial = sim::runBatch(jobs, 1);
    const auto par = sim::runBatch(jobs, 4);
    const auto par2 = sim::runBatch(jobs, 4);
    expectIdentical(serial, par, "jobs=1 vs jobs=4");
    expectIdentical(par, par2, "jobs=4 repeat");
}

TEST(Batch, ConcurrentFirstFingerprintsMatchSerial)
{
    // Two separate builds share no pages. Nothing has fingerprinted
    // `fresh`, so its four parallel jobs race to fill the per-page
    // fingerprint memos their models share through its image.
    const workloads::Workload fresh =
        workloads::buildWorkload("181.mcf", kScale);
    const workloads::Workload ref =
        workloads::buildWorkload("181.mcf", kScale);
    auto jobsFor = [](const isa::Program &prog) {
        std::vector<sim::SimJob> jobs;
        for (sim::CpuKind kind :
             {sim::CpuKind::kBaseline, sim::CpuKind::kTwoPass,
              sim::CpuKind::kTwoPassRegroup}) {
            sim::SimJob j;
            j.program = &prog;
            j.kind = kind;
            jobs.push_back(j);
        }
        return jobs;
    };
    const auto par = sim::runBatch(jobsFor(fresh.program), 4);
    const auto serial = sim::runBatch(jobsFor(ref.program), 1);
    expectIdentical(serial, par, "fresh image on 4 jobs vs serial");
}

/** Threads alive in this process. */
std::size_t
liveThreads()
{
    std::size_t n = 0;
    for ([[maybe_unused]] const auto &task :
         std::filesystem::directory_iterator("/proc/self/task"))
        ++n;
    return n;
}

TEST(Batch, NeverStartsMoreWorkersThanUnits)
{
    // Two jobs at 16 threads: no more workers than units may start
    // (the caller runs units too). A watcher samples the process's
    // threads while the batch runs.
    if (!std::filesystem::exists("/proc/self/task"))
        GTEST_SKIP() << "no /proc/self/task";
    const workloads::Workload w = workloads::buildWorkload("181.mcf", 20);
    std::vector<sim::SimJob> jobs(2);
    for (sim::SimJob &j : jobs)
        j.program = &w.program;
    jobs[1].kind = sim::CpuKind::kTwoPass;

    std::atomic<bool> done{false};
    std::size_t peak = 0;
    std::thread watcher([&] {
        while (!done.load()) {
            peak = std::max(peak, liveThreads());
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });
    const std::size_t before = liveThreads(); // caller and watcher
    const std::vector<sim::SimOutcome> out =
        sim::runBatch(jobs, /*threads=*/16);
    done = true;
    watcher.join();
    EXPECT_TRUE(out[0].run.halted && out[1].run.halted);
    EXPECT_LE(peak, before + 2);
}

TEST(Batch, OutcomesArriveInSubmissionOrder)
{
    std::vector<workloads::Workload> suite;
    suite.push_back(workloads::buildWorkload("181.mcf", kScale));
    const std::vector<sim::SimJob> jobs = suiteJobs(suite);
    const auto outcomes = sim::runBatch(jobs, 4);
    ASSERT_EQ(outcomes.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(outcomes[i].kind, jobs[i].kind) << "slot " << i;
}

TEST(Batch, SweepIsRowMajorAndMatchesDirectCalls)
{
    std::vector<workloads::Workload> suite;
    suite.push_back(workloads::buildWorkload("129.compress", kScale));
    suite.push_back(workloads::buildWorkload("130.li", kScale));

    cpu::CoreConfig nofb = sim::table1Config();
    nofb.feedbackEnabled = false;
    const std::vector<sim::SweepVariant> variants = {
        {sim::CpuKind::kBaseline, {}},
        {sim::CpuKind::kTwoPass, {}},
        {sim::CpuKind::kTwoPass, nofb},
    };
    const auto grid = sim::runSweep(suite, variants, 4);
    ASSERT_EQ(grid.size(), suite.size() * variants.size());

    for (std::size_t wi = 0; wi < suite.size(); ++wi) {
        for (std::size_t vi = 0; vi < variants.size(); ++vi) {
            const sim::SimOutcome &got =
                grid[wi * variants.size() + vi];
            const sim::SimOutcome direct = sim::simulate(
                suite[wi].program, variants[vi].kind, variants[vi].cfg);
            EXPECT_EQ(got.kind, variants[vi].kind);
            EXPECT_EQ(got.run.cycles, direct.run.cycles)
                << suite[wi].name << " variant " << vi;
            EXPECT_EQ(got.checksum, direct.checksum);
        }
    }
}

TEST(Batch, FunctionalBatchMatchesDirectCalls)
{
    std::vector<workloads::Workload> suite;
    suite.push_back(workloads::buildWorkload("181.mcf", kScale));
    suite.push_back(workloads::buildWorkload("099.go", kScale));
    std::vector<const isa::Program *> programs;
    for (const auto &w : suite)
        programs.push_back(&w.program);

    const auto batch = sim::runFunctionalBatch(programs, 4);
    ASSERT_EQ(batch.size(), programs.size());
    for (std::size_t i = 0; i < programs.size(); ++i) {
        const sim::FunctionalOutcome direct =
            sim::runFunctional(*programs[i]);
        EXPECT_EQ(batch[i].checksum, direct.checksum);
        EXPECT_EQ(batch[i].result.instsExecuted,
                  direct.result.instsExecuted);
    }
}

TEST(Batch, BuildWorkloadsParallelMatchesSerialBuild)
{
    const std::vector<std::string> names = {"181.mcf", "129.compress",
                                            "183.equake"};
    const auto par = sim::buildWorkloadsParallel(
        names, kScale, workloads::InputSet::kDefault, 4);
    ASSERT_EQ(par.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        const workloads::Workload direct =
            workloads::buildWorkload(names[i], kScale);
        EXPECT_EQ(par[i].name, direct.name);
        EXPECT_EQ(par[i].program.size(), direct.program.size());
        EXPECT_EQ(par[i].program.instStreamHash(),
                  direct.program.instStreamHash());
    }
}

TEST(Batch, ResolveJobsPrefersOverrideThenDefault)
{
    EXPECT_EQ(sim::resolveJobs(7), 7u);
    sim::setJobs(3);
    EXPECT_EQ(sim::resolveJobs(0), 3u);
    EXPECT_EQ(sim::resolveJobs(2), 2u);
    sim::setJobs(0);
    EXPECT_GE(sim::resolveJobs(0), 1u);
}

TEST(Batch, ParseJobsFlagStripsArguments)
{
    const char *argv_in[] = {"bench", "--jobs", "5", "25", "alt",
                             nullptr};
    char *argv[6];
    for (int i = 0; i < 5; ++i)
        argv[i] = const_cast<char *>(argv_in[i]);
    argv[5] = nullptr;
    int argc = 5;
    EXPECT_EQ(sim::parseJobsFlag(argc, argv), 5u);
    ASSERT_EQ(argc, 3);
    EXPECT_STREQ(argv[0], "bench");
    EXPECT_STREQ(argv[1], "25");
    EXPECT_STREQ(argv[2], "alt");
    EXPECT_EQ(sim::resolveJobs(0), 5u);
    sim::setJobs(0);
}

/** Counts past UINT_MAX are fatal, not wrapped into a small count;
 *  so is a count of 0. */
TEST(BatchDeathTest, JobsFlagRejectsCountsThatDoNotFit)
{
    for (const char *count :
         {"4294967297", "4294967296", "99999999999999999999", "0"}) {
        const char *argv_in[] = {"bench", "--jobs", count, nullptr};
        char *argv[4];
        for (int i = 0; i < 4; ++i)
            argv[i] = const_cast<char *>(argv_in[i]);
        int argc = 3;
        EXPECT_EXIT(sim::parseJobsFlag(argc, argv),
                    ::testing::ExitedWithCode(1), "bad --jobs value")
            << count;
    }
}

TEST(Batch, ParseJobsFlagHandlesEqualsForm)
{
    const char *argv_in[] = {"bench", "--jobs=2", nullptr};
    char *argv[3];
    for (int i = 0; i < 2; ++i)
        argv[i] = const_cast<char *>(argv_in[i]);
    argv[2] = nullptr;
    int argc = 2;
    EXPECT_EQ(sim::parseJobsFlag(argc, argv), 2u);
    EXPECT_EQ(argc, 1);
    sim::setJobs(0);
}

/**
 * Metrics collection composes with the parallel engine: every job of
 * a metered parallel batch carries its own MetricsRecord (observers
 * are per-job, nothing shared across workers), and the aggregate
 * outcome fields stay bit-identical to an unmetered serial run —
 * the bench_fig6 guarantee with profiling left on.
 */
TEST(Batch, MetricsRecordsArePerJobAndResultsUnchanged)
{
    std::vector<workloads::Workload> suite;
    suite.push_back(workloads::buildWorkload("181.mcf", kScale));
    suite.push_back(workloads::buildWorkload("130.li", kScale));

    std::vector<sim::SimJob> plain = suiteJobs(suite);
    std::vector<sim::SimJob> metered = plain;
    for (sim::SimJob &j : metered) {
        j.metrics.profile = true;
        j.metrics.telemetry = true;
    }

    const auto serial = sim::runBatch(plain, 1);
    const auto par = sim::runBatch(metered, 4);
    expectIdentical(serial, par, "unmetered jobs=1 vs metered jobs=4");

    for (std::size_t i = 0; i < par.size(); ++i) {
        ASSERT_NE(par[i].metrics, nullptr) << "slot " << i;
        EXPECT_EQ(serial[i].metrics, nullptr) << "slot " << i;
        std::uint64_t attributed = 0;
        for (const auto &row : par[i].metrics->profile)
            attributed += row.prof.totalCycles();
        for (std::uint64_t c : par[i].metrics->unattributed)
            attributed += c;
        EXPECT_EQ(attributed, par[i].run.cycles) << "slot " << i;
    }
}

TEST(Batch, ParseJobsFlagAbsentLeavesArgsAlone)
{
    const char *argv_in[] = {"bench", "25", nullptr};
    char *argv[3];
    for (int i = 0; i < 2; ++i)
        argv[i] = const_cast<char *>(argv_in[i]);
    argv[2] = nullptr;
    int argc = 2;
    EXPECT_EQ(sim::parseJobsFlag(argc, argv), 0u);
    EXPECT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "25");
}

} // namespace
