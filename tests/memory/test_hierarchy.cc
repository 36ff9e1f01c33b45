/** @file Unit tests for the timed memory hierarchy. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/serialize.hh"
#include "memory/hierarchy.hh"

namespace
{

using namespace ff;
using namespace ff::memory;

std::vector<std::uint8_t>
saved(const Hierarchy &h)
{
    serial::Writer w;
    h.save(w);
    return w.take();
}

/** True when @p bytes restore into a fresh default hierarchy. */
bool
restores(const std::vector<std::uint8_t> &bytes)
{
    Hierarchy h((MemoryConfig()));
    serial::Reader r(bytes);
    h.restore(r);
    return r.ok();
}

AccessResult
load(Hierarchy &h, Addr a, Cycle now,
     Initiator who = Initiator::kBaseline)
{
    h.tick(now);
    return h.access(AccessKind::kLoad, who, a, now);
}

TEST(Hierarchy, ColdLoadGoesToMemory)
{
    Hierarchy h((MemoryConfig()));
    const AccessResult r = load(h, 0x1000, 0);
    EXPECT_EQ(r.level, MemLevel::kMemory);
    EXPECT_EQ(r.latency, 145u);
}

TEST(Hierarchy, FillArrivesAtCompletionCycle)
{
    Hierarchy h((MemoryConfig()));
    load(h, 0x1000, 0); // completes at 145
    // Before the fill, a re-access merges into the in-flight miss.
    const AccessResult early = load(h, 0x1000, 100);
    EXPECT_TRUE(early.mergedInFlight);
    EXPECT_EQ(early.latency, 45u);
    // After the fill, it is an L1 hit.
    const AccessResult late = load(h, 0x1000, 150);
    EXPECT_EQ(late.level, MemLevel::kL1);
    EXPECT_EQ(late.latency, 2u);
}

TEST(Hierarchy, MergedAccessNeverFasterThanL1)
{
    Hierarchy h((MemoryConfig()));
    load(h, 0x1000, 0);
    const AccessResult r = load(h, 0x1000, 144);
    EXPECT_TRUE(r.mergedInFlight);
    EXPECT_EQ(r.latency, 2u); // max(l1, remaining)
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    MemoryConfig cfg;
    Hierarchy h(cfg);
    load(h, 0x0, 0);
    h.tick(200);
    // Evict line 0 from the 4-way L1 by filling its set: same set
    // every 16KB/4 = 4096 bytes... walk addresses mapping to set 0.
    const Addr set_stride = cfg.l1d.sizeBytes / cfg.l1d.assoc;
    for (int w = 1; w <= 4; ++w)
        load(h, static_cast<Addr>(w) * set_stride, 200 + w);
    h.tick(600);
    const AccessResult r = load(h, 0x0, 600);
    // Line 0 left the L1 but remains in the bigger L2.
    EXPECT_EQ(r.level, MemLevel::kL2);
    EXPECT_EQ(r.latency, 5u);
}

TEST(Hierarchy, DistinctLinesMissIndependently)
{
    Hierarchy h((MemoryConfig()));
    const AccessResult a = load(h, 0x0000, 0);
    const AccessResult b = load(h, 0x4000, 0);
    EXPECT_EQ(a.level, MemLevel::kMemory);
    EXPECT_EQ(b.level, MemLevel::kMemory);
    EXPECT_FALSE(b.mergedInFlight);
}

TEST(Hierarchy, MshrOccupancyAndExpiry)
{
    MemoryConfig cfg;
    cfg.maxOutstandingLoads = 2;
    Hierarchy h(cfg);
    load(h, 0x0000, 0);
    load(h, 0x4000, 0);
    EXPECT_EQ(h.outstandingLoads(0), 2u);
    EXPECT_FALSE(h.loadSlotAvailable(0));
    // After completion they expire.
    h.tick(146);
    EXPECT_EQ(h.outstandingLoads(146), 0u);
    EXPECT_TRUE(h.loadSlotAvailable(146));
}

TEST(Hierarchy, L1HitsDoNotTakeMshrs)
{
    Hierarchy h((MemoryConfig()));
    load(h, 0x1000, 0);
    h.tick(200);
    const unsigned before = h.outstandingLoads(200);
    load(h, 0x1000, 200); // L1 hit
    EXPECT_EQ(h.outstandingLoads(200), before);
}

TEST(Hierarchy, MergedLoadsDoNotTakeNewMshrs)
{
    Hierarchy h((MemoryConfig()));
    load(h, 0x1000, 0);
    load(h, 0x1008, 1); // same line, merged
    EXPECT_EQ(h.outstandingLoads(1), 1u);
}

TEST(Hierarchy, StoresAllocateDirtyLines)
{
    Hierarchy h((MemoryConfig()));
    h.tick(0);
    h.access(AccessKind::kStore, Initiator::kBaseline, 0x2000, 0);
    EXPECT_EQ(h.outstandingLoads(0), 0u); // stores take no MSHR
    h.tick(200);
    EXPECT_TRUE(h.l1d().contains(0x2000));
}

TEST(Hierarchy, InstAndDataSidesAreSeparate)
{
    Hierarchy h((MemoryConfig()));
    h.tick(0);
    h.access(AccessKind::kInstFetch, Initiator::kBaseline, 0x3000, 0);
    h.tick(200);
    EXPECT_TRUE(h.l1i().contains(0x3000));
    EXPECT_FALSE(h.l1d().contains(0x3000));
    // But the L2 is unified: a data access to the same line hits it.
    const AccessResult r = load(h, 0x3000, 200);
    EXPECT_EQ(r.level, MemLevel::kL2);
}

TEST(Hierarchy, AccessStatsByInitiatorAndLevel)
{
    Hierarchy h((MemoryConfig()));
    load(h, 0x1000, 0, Initiator::kApipe);
    h.tick(200);
    load(h, 0x1000, 200, Initiator::kBpipe);

    const AccessStats &s = h.accessStats();
    const auto apipe = static_cast<unsigned>(Initiator::kApipe);
    const auto bpipe = static_cast<unsigned>(Initiator::kBpipe);
    const auto mem = static_cast<unsigned>(MemLevel::kMemory);
    const auto l1 = static_cast<unsigned>(MemLevel::kL1);
    EXPECT_EQ(s.counts[apipe][mem], 1u);
    EXPECT_EQ(s.weightedCycles[apipe][mem], 145u);
    EXPECT_EQ(s.counts[bpipe][l1], 1u);
    EXPECT_EQ(s.weightedCycles[bpipe][l1], 2u);
}

TEST(Hierarchy, InstFetchesRecordedSeparately)
{
    Hierarchy h((MemoryConfig()));
    h.tick(0);
    h.access(AccessKind::kInstFetch, Initiator::kApipe, 0x100, 0);
    const auto apipe = static_cast<unsigned>(Initiator::kApipe);
    const auto mem = static_cast<unsigned>(MemLevel::kMemory);
    EXPECT_EQ(h.accessStats().counts[apipe][mem], 0u);
    EXPECT_EQ(h.instAccessStats().counts[apipe][mem], 1u);
}

TEST(Hierarchy, ResetClearsEverything)
{
    Hierarchy h((MemoryConfig()));
    load(h, 0x1000, 0);
    h.reset();
    EXPECT_EQ(h.outstandingLoads(0), 0u);
    EXPECT_FALSE(h.l1d().contains(0x1000));
    const AccessResult r = load(h, 0x1000, 0);
    EXPECT_EQ(r.level, MemLevel::kMemory);
}

TEST(Hierarchy, PrefetchDisabledByDefault)
{
    Hierarchy h((MemoryConfig()));
    load(h, 0x1000, 0);
    EXPECT_EQ(h.prefetchesIssued(), 0u);
}

TEST(Hierarchy, NextLinePrefetchWarmsFollowingLines)
{
    MemoryConfig cfg;
    cfg.prefetchDegree = 2;
    Hierarchy h(cfg);
    load(h, 0x1000, 0); // demand miss prefetches 0x1040, 0x1080
    EXPECT_EQ(h.prefetchesIssued(), 2u);
    h.tick(200);
    EXPECT_TRUE(h.l1d().contains(0x1040));
    EXPECT_TRUE(h.l1d().contains(0x1080));
    EXPECT_FALSE(h.l1d().contains(0x10C0)); // beyond the degree
    const AccessResult r = load(h, 0x1040, 200);
    EXPECT_EQ(r.level, MemLevel::kL1);
}

TEST(Hierarchy, PrefetchSkipsPresentAndInFlightLines)
{
    MemoryConfig cfg;
    cfg.prefetchDegree = 1;
    Hierarchy h(cfg);
    load(h, 0x1000, 0); // prefetches 0x1040
    const auto after_first = h.prefetchesIssued();
    load(h, 0x1040, 1); // merges into the in-flight prefetch...
    EXPECT_EQ(h.prefetchesIssued(), after_first);
    h.tick(300);
    load(h, 0x2000, 300);
    EXPECT_EQ(h.prefetchesIssued(), after_first + 1);
}

TEST(Hierarchy, PrefetchesTakeNoMshrs)
{
    MemoryConfig cfg;
    cfg.prefetchDegree = 4;
    cfg.maxOutstandingLoads = 2;
    Hierarchy h(cfg);
    load(h, 0x1000, 0);
    EXPECT_EQ(h.outstandingLoads(0), 1u); // the demand miss only
}

TEST(Hierarchy, SnapshotKeepsInFlightFills)
{
    Hierarchy h((MemoryConfig()));
    load(h, 0x1000, 0); // data fill due at 145
    h.tick(3);
    h.access(AccessKind::kInstFetch, Initiator::kBaseline, 0x1000, 3);
    const std::vector<std::uint8_t> bytes = saved(h);
    Hierarchy g((MemoryConfig()));
    serial::Reader r(bytes);
    g.restore(r);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(saved(g), bytes);
    // Both fills still merge later accesses on their own side.
    const AccessResult d = load(g, 0x1000, 100);
    EXPECT_TRUE(d.mergedInFlight);
    EXPECT_EQ(d.latency, 45u);
    const AccessResult i =
        g.access(AccessKind::kInstFetch, Initiator::kBaseline, 0x1000, 100);
    EXPECT_TRUE(i.mergedInFlight);
    EXPECT_EQ(i.latency, 48u);
}

TEST(Hierarchy, RestoreRejectsInFlightListsThatDisagreeWithFills)
{
    Hierarchy h((MemoryConfig()));
    load(h, 0x1000, 0); // data fill of line 0x1000 due at 145
    const std::vector<std::uint8_t> bytes = saved(h);
    ASSERT_TRUE(restores(bytes));

    // The in-flight data list holds (line, due); the fill table holds
    // (due, line), so the pair occurs once, in the list.
    serial::Writer pair;
    pair.u64(0x1000);
    pair.u64(145);
    const std::vector<std::uint8_t> &pat = pair.buffer();
    const auto at =
        std::search(bytes.begin(), bytes.end(), pat.begin(), pat.end());
    ASSERT_NE(at, bytes.end());
    ASSERT_EQ(std::search(at + 1, bytes.end(), pat.begin(), pat.end()),
              bytes.end());
    const std::size_t off = static_cast<std::size_t>(at - bytes.begin());

    std::vector<std::uint8_t> wrong_due = bytes;
    wrong_due[off + 8] = 146;
    EXPECT_FALSE(restores(wrong_due));

    std::vector<std::uint8_t> wrong_line = bytes;
    wrong_line[off + 1] = 0x20; // line 0x2000, which has no fill
    EXPECT_FALSE(restores(wrong_line));

    std::vector<std::uint8_t> missing = bytes;
    missing[off - 8] = 0; // the list claims no data line in flight
    missing.erase(missing.begin() + static_cast<std::ptrdiff_t>(off),
                  missing.begin() + static_cast<std::ptrdiff_t>(off + 16));
    EXPECT_FALSE(restores(missing));
}

TEST(Hierarchy, NextEventIsTheEarlierOfFillAndMshrRelease)
{
    Hierarchy h((MemoryConfig()));
    EXPECT_EQ(h.nextEvent(), kNeverCycle);
    // A store miss schedules a fill but takes no MSHR.
    h.access(AccessKind::kStore, Initiator::kBaseline, 0x1000, 0);
    EXPECT_EQ(h.nextEvent(), 145u);
    EXPECT_EQ(h.outstandingLoads(0), 0u);
    // A load miss takes an MSHR, released with its fill at 155.
    load(h, 0x2000, 10);
    EXPECT_EQ(h.nextEvent(), 145u);
    // A merge into the load's fill adds no event.
    load(h, 0x2008, 20);
    EXPECT_EQ(h.nextEvent(), 145u);
    h.tick(144);
    EXPECT_EQ(h.nextEvent(), 145u);
    h.tick(145);
    EXPECT_EQ(h.nextEvent(), 155u);
    EXPECT_EQ(h.outstandingLoads(154), 1u);
    h.tick(155);
    EXPECT_EQ(h.nextEvent(), kNeverCycle);
    EXPECT_EQ(h.outstandingLoads(155), 0u);
}

TEST(Hierarchy, MemLevelNames)
{
    EXPECT_STREQ(memLevelName(MemLevel::kL1), "L1");
    EXPECT_STREQ(memLevelName(MemLevel::kL2), "L2");
    EXPECT_STREQ(memLevelName(MemLevel::kL3), "L3");
    EXPECT_STREQ(memLevelName(MemLevel::kMemory), "Mem");
}

} // namespace
