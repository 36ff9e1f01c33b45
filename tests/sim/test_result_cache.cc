/**
 * @file
 * The on-disk result cache: content addresses must separate every
 * input that can change an outcome, hits must reproduce the stored
 * outcome bit for bit, and — the safety property — corrupt or stale
 * entries must degrade to misses, never to wrong results.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "sim/batch.hh"
#include "sim/harness.hh"
#include "sim/result_cache.hh"
#include "workloads/workload.hh"

namespace
{

using namespace ff;
namespace fs = std::filesystem;

constexpr int kScale = 6;

const workloads::Workload &
workload()
{
    static const workloads::Workload w =
        workloads::buildWorkload("129.compress", kScale);
    return w;
}

/**
 * Every test runs against a private temp directory and restores the
 * disabled-cache default afterwards, so the cache globals never leak
 * into the other suites of this binary.
 */
class ResultCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        _dir = fs::path(::testing::TempDir()) /
               ("ffcache_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        fs::remove_all(_dir);
        sim::setResultCacheDir(_dir.string());
        sim::setResultCacheBypass(false);
        sim::resetResultCacheStats();
    }

    void
    TearDown() override
    {
        sim::setResultCacheDir("");
        sim::setResultCacheBypass(false);
        sim::resetResultCacheStats();
        fs::remove_all(_dir);
    }

    /** The single .ffr file under the cache dir (asserts exactly 1). */
    fs::path
    onlyEntry() const
    {
        std::vector<fs::path> found;
        for (const auto &e : fs::recursive_directory_iterator(_dir))
            if (e.path().extension() == ".ffr")
                found.push_back(e.path());
        EXPECT_EQ(found.size(), 1u);
        return found.empty() ? fs::path() : found.front();
    }

    fs::path _dir;
};

void
expectSameOutcome(const sim::SimOutcome &a, const sim::SimOutcome &b)
{
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.run.halted, b.run.halted);
    EXPECT_EQ(a.run.cycles, b.run.cycles);
    EXPECT_EQ(a.run.instsRetired, b.run.instsRetired);
    EXPECT_EQ(a.run.groupsRetired, b.run.groupsRetired);
    EXPECT_EQ(a.cycles.counts, b.cycles.counts);
    EXPECT_EQ(a.accesses.counts, b.accesses.counts);
    EXPECT_EQ(a.accesses.weightedCycles, b.accesses.weightedCycles);
    EXPECT_EQ(a.branches.lookups, b.branches.lookups);
    EXPECT_EQ(a.branches.mispredicts, b.branches.mispredicts);
    EXPECT_EQ(a.twopass.dispatched, b.twopass.dispatched);
    EXPECT_EQ(a.twopass.deferred, b.twopass.deferred);
    EXPECT_EQ(a.twopass.deferredByReason, b.twopass.deferredByReason);
    EXPECT_EQ(a.alat.allocations, b.alat.allocations);
    EXPECT_EQ(a.runahead.episodes, b.runahead.episodes);
    EXPECT_EQ(a.regFingerprint, b.regFingerprint);
    EXPECT_EQ(a.memFingerprint, b.memFingerprint);
    EXPECT_EQ(a.checksum, b.checksum);
}

TEST_F(ResultCacheTest, KeySeparatesEveryInput)
{
    const cpu::CoreConfig cfg = sim::table1Config();
    const isa::Program &p = workload().program;
    const std::string base = sim::resultCacheKey(
        p, sim::CpuKind::kTwoPass, cfg, sim::kDefaultMaxCycles);
    EXPECT_EQ(base.size(), 64u); // SHA-256 hex

    EXPECT_EQ(base,
              sim::resultCacheKey(p, sim::CpuKind::kTwoPass, cfg,
                                  sim::kDefaultMaxCycles));
    EXPECT_NE(base,
              sim::resultCacheKey(p, sim::CpuKind::kTwoPassRegroup,
                                  cfg, sim::kDefaultMaxCycles));
    EXPECT_NE(base, sim::resultCacheKey(p, sim::CpuKind::kTwoPass,
                                        cfg, 12345));
    cpu::CoreConfig other = cfg;
    other.alatCapacity = 8;
    EXPECT_NE(base,
              sim::resultCacheKey(p, sim::CpuKind::kTwoPass, other,
                                  sim::kDefaultMaxCycles));
    isa::Program poked = p;
    poked.poke64(0xa000, 7);
    EXPECT_NE(base,
              sim::resultCacheKey(poked, sim::CpuKind::kTwoPass, cfg,
                                  sim::kDefaultMaxCycles));
}

TEST_F(ResultCacheTest, MissStoreHitRoundTrip)
{
    const cpu::CoreConfig cfg = sim::table1Config();
    const sim::SimOutcome cold = sim::simulate(
        workload().program, sim::CpuKind::kTwoPass, cfg);
    const std::string key =
        sim::resultCacheKey(workload().program, sim::CpuKind::kTwoPass,
                            cfg, sim::kDefaultMaxCycles);

    sim::SimOutcome loaded;
    EXPECT_FALSE(sim::resultCacheLookup(key, loaded));
    EXPECT_TRUE(sim::resultCacheStore(key, cold));
    ASSERT_TRUE(sim::resultCacheLookup(key, loaded));
    expectSameOutcome(cold, loaded);

    const sim::ResultCacheStats s = sim::resultCacheStats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.stores, 1u);
    EXPECT_EQ(s.errors, 0u);
}

TEST_F(ResultCacheTest, CachedOutcomeRendersTheSameStatsReport)
{
    // ffvm --stats is answered from the cache like a plain run, so an
    // entry must carry every counter the dump prints: the baseline
    // issue counters and the two-pass CQ depth sums included.
    const cpu::CoreConfig cfg = sim::table1Config();
    const workloads::Workload mcf =
        workloads::buildWorkload("181.mcf", kScale);
    for (unsigned k = 0; k < cpu::kNumCpuKinds; ++k) {
        const sim::CpuKind kind = static_cast<sim::CpuKind>(k);
        SCOPED_TRACE(sim::cpuKindName(kind));
        const sim::SimOutcome cold = sim::simulate(mcf.program, kind, cfg);
        if (kind == sim::CpuKind::kBaseline ||
            kind == sim::CpuKind::kRunahead) {
            EXPECT_GT(cold.baseline.loadsIssued, 0u);
        } else {
            EXPECT_GT(cold.twopass.cqDepthSum, 0u);
            EXPECT_GT(cold.twopass.cqDepthSamples, 0u);
        }
        const std::string key = sim::resultCacheKey(
            mcf.program, kind, cfg, sim::kDefaultMaxCycles);
        ASSERT_TRUE(sim::resultCacheStore(key, cold));
        sim::SimOutcome loaded;
        ASSERT_TRUE(sim::resultCacheLookup(key, loaded));
        EXPECT_EQ(sim::statsReport(loaded), sim::statsReport(cold));
        EXPECT_EQ(loaded.baseline.loadsIssued, cold.baseline.loadsIssued);
        EXPECT_EQ(loaded.baseline.mispredicts, cold.baseline.mispredicts);
        EXPECT_EQ(loaded.twopass.cqDepthSum, cold.twopass.cqDepthSum);
        EXPECT_EQ(loaded.twopass.cqDepthSamples,
                  cold.twopass.cqDepthSamples);
    }
}

TEST_F(ResultCacheTest, DisabledCacheNeverTouchesDisk)
{
    sim::setResultCacheDir("");
    const cpu::CoreConfig cfg = sim::table1Config();
    const sim::SimOutcome cold = sim::simulate(
        workload().program, sim::CpuKind::kBaseline, cfg);
    sim::SimOutcome loaded;
    EXPECT_FALSE(sim::resultCacheEnabled());
    EXPECT_FALSE(sim::resultCacheLookup("00deadbeef", loaded));
    EXPECT_FALSE(sim::resultCacheStore("00deadbeef", cold));
    const sim::ResultCacheStats s = sim::resultCacheStats();
    EXPECT_EQ(s.hits + s.misses + s.stores + s.errors, 0u);
}

TEST_F(ResultCacheTest, BypassSkipsLookupButRefreshesStore)
{
    const cpu::CoreConfig cfg = sim::table1Config();
    const sim::SimOutcome cold = sim::simulate(
        workload().program, sim::CpuKind::kBaseline, cfg);
    const std::string key =
        sim::resultCacheKey(workload().program,
                            sim::CpuKind::kBaseline, cfg,
                            sim::kDefaultMaxCycles);
    EXPECT_TRUE(sim::resultCacheStore(key, cold));

    sim::setResultCacheBypass(true);
    sim::SimOutcome loaded;
    EXPECT_FALSE(sim::resultCacheLookup(key, loaded));
    EXPECT_TRUE(sim::resultCacheStore(key, cold));

    sim::setResultCacheBypass(false);
    ASSERT_TRUE(sim::resultCacheLookup(key, loaded));
    expectSameOutcome(cold, loaded);
}

TEST_F(ResultCacheTest, CorruptEntriesDegradeToMisses)
{
    const cpu::CoreConfig cfg = sim::table1Config();
    const sim::SimOutcome cold = sim::simulate(
        workload().program, sim::CpuKind::kTwoPass, cfg);
    const std::string key =
        sim::resultCacheKey(workload().program, sim::CpuKind::kTwoPass,
                            cfg, sim::kDefaultMaxCycles);
    ASSERT_TRUE(sim::resultCacheStore(key, cold));
    const fs::path entry = onlyEntry();

    // Truncate the entry: lookup must miss, count an error, and
    // remove the bad file.
    fs::resize_file(entry, fs::file_size(entry) / 2);
    sim::SimOutcome loaded;
    EXPECT_FALSE(sim::resultCacheLookup(key, loaded));
    EXPECT_FALSE(fs::exists(entry));
    EXPECT_GE(sim::resultCacheStats().errors, 1u);

    // Garbage bytes: same story.
    ASSERT_TRUE(sim::resultCacheStore(key, cold));
    {
        std::ofstream out(entry, std::ios::binary | std::ios::trunc);
        out << "not a cache entry";
    }
    EXPECT_FALSE(sim::resultCacheLookup(key, loaded));

    // A fresh store repairs the slot.
    ASSERT_TRUE(sim::resultCacheStore(key, cold));
    ASSERT_TRUE(sim::resultCacheLookup(key, loaded));
    expectSameOutcome(cold, loaded);
}

TEST_F(ResultCacheTest, SingleByteMutantsNeverHit)
{
    // Every single-byte corruption of a real entry, a counter or the
    // digest trailer included, must read as a corrupt entry: a miss,
    // one more error, and the file removed.
    const cpu::CoreConfig cfg = sim::table1Config();
    const sim::SimOutcome cold = sim::simulate(
        workload().program, sim::CpuKind::kTwoPass, cfg);
    const std::string key =
        sim::resultCacheKey(workload().program, sim::CpuKind::kTwoPass,
                            cfg, sim::kDefaultMaxCycles);
    ASSERT_TRUE(sim::resultCacheStore(key, cold));
    const fs::path entry = onlyEntry();
    std::vector<char> good;
    {
        std::ifstream in(entry, std::ios::binary);
        good.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    }
    ASSERT_FALSE(good.empty());

    std::uint64_t errors = sim::resultCacheStats().errors;
    for (std::size_t i = 0; i < good.size(); ++i) {
        for (const unsigned mask : {0x01u, 0x80u, 0xffu}) {
            std::vector<char> bad = good;
            bad[i] = static_cast<char>(bad[i] ^ mask);
            {
                std::ofstream out(entry,
                                  std::ios::binary | std::ios::trunc);
                out.write(bad.data(),
                          static_cast<std::streamsize>(bad.size()));
            }
            sim::SimOutcome loaded;
            ASSERT_FALSE(sim::resultCacheLookup(key, loaded))
                << "byte " << i << " ^ " << mask;
            ASSERT_EQ(sim::resultCacheStats().errors, ++errors)
                << "byte " << i << " ^ " << mask;
            ASSERT_FALSE(fs::exists(entry))
                << "byte " << i << " ^ " << mask;
        }
    }
    EXPECT_EQ(sim::resultCacheStats().hits, 0u);
}

TEST_F(ResultCacheTest, MeteredOutcomesAreNeverCached)
{
    const cpu::CoreConfig cfg = sim::table1Config();
    sim::MetricsOptions mopt;
    mopt.profile = true;
    const sim::SimOutcome metered =
        sim::simulate(workload().program, sim::CpuKind::kTwoPass, cfg,
                      sim::kDefaultMaxCycles, mopt);
    ASSERT_NE(metered.metrics, nullptr);
    const std::string key =
        sim::resultCacheKey(workload().program, sim::CpuKind::kTwoPass,
                            cfg, sim::kDefaultMaxCycles);
    EXPECT_FALSE(sim::resultCacheStore(key, metered));
    sim::SimOutcome loaded;
    EXPECT_FALSE(sim::resultCacheLookup(key, loaded));
}

TEST_F(ResultCacheTest, BatchSecondRunIsAllHits)
{
    const std::vector<sim::SweepVariant> variants = {
        {sim::CpuKind::kBaseline, {}},
        {sim::CpuKind::kTwoPass, {}},
        {sim::CpuKind::kTwoPassRegroup, {}},
    };
    const std::vector<workloads::Workload> suite = {workload()};

    const auto cold = sim::runSweep(suite, variants, 2);
    const sim::ResultCacheStats after1 = sim::resultCacheStats();
    EXPECT_EQ(after1.hits, 0u);
    EXPECT_EQ(after1.misses, variants.size());
    EXPECT_EQ(after1.stores, variants.size());

    const auto warm = sim::runSweep(suite, variants, 2);
    const sim::ResultCacheStats after2 = sim::resultCacheStats();
    EXPECT_EQ(after2.hits, variants.size());
    EXPECT_EQ(after2.misses, variants.size());

    ASSERT_EQ(cold.size(), warm.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
        SCOPED_TRACE(i);
        expectSameOutcome(cold[i], warm[i]);
    }
}

TEST_F(ResultCacheTest, ForkedSweepUsesAndFillsTheCache)
{
    const std::vector<sim::SweepVariant> variants = {
        {sim::CpuKind::kTwoPass, {}},
        {sim::CpuKind::kRunahead, {}},
    };
    const std::vector<workloads::Workload> suite = {workload()};
    sim::SweepOptions opts;
    opts.warmupCycles = 1500;
    opts.threads = 2;

    const auto cold = sim::runSweep(suite, variants, opts);
    EXPECT_EQ(sim::resultCacheStats().stores, variants.size());

    const auto warm = sim::runSweep(suite, variants, opts);
    EXPECT_EQ(sim::resultCacheStats().hits, variants.size());
    ASSERT_EQ(cold.size(), warm.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
        SCOPED_TRACE(i);
        expectSameOutcome(cold[i], warm[i]);
    }
}

TEST_F(ResultCacheTest, ConcurrentFirstKeysMatchTheSerialKey)
{
    // Every worker of a sweep keys the same const Program, so the
    // first contentHash() call on it races unless the memo is safe.
    const cpu::CoreConfig cfg = sim::table1Config();
    const isa::Program fresh =
        workloads::buildWorkload("181.mcf", kScale).program;
    const isa::Program copy = fresh; // never hashed either
    const std::string serial = sim::resultCacheKey(
        copy, sim::CpuKind::kTwoPass, cfg, sim::kDefaultMaxCycles);

    std::vector<std::string> keys(8);
    std::atomic<bool> go{false};
    std::vector<std::thread> racers;
    for (std::string &key : keys) {
        racers.emplace_back([&] {
            while (!go.load())
                std::this_thread::yield();
            key = sim::resultCacheKey(fresh, sim::CpuKind::kTwoPass,
                                      cfg, sim::kDefaultMaxCycles);
        });
    }
    go = true;
    for (std::thread &t : racers)
        t.join();
    for (const std::string &key : keys)
        EXPECT_EQ(key, serial);
}

} // namespace
