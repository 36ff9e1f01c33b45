/**
 * @file
 * Tests of the core-kernel layer: the model factory (the single
 * construction path and its 2Pre regroup override) and the
 * CoreObserver seam (event counts agree with the run's own results
 * and the model's statistics, across models).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "cpu/core/model_factory.hh"
#include "cpu/functional/functional_cpu.hh"
#include "cpu/model_stats.hh"
#include "workloads/workload.hh"

namespace
{

using namespace ff;
using namespace ff::cpu;

/** Counts the observer events the seam tests cross-check. */
struct CountingObserver : CoreObserver
{
    std::uint64_t cycles = 0;
    std::uint64_t groupRetires = 0;
    std::uint64_t slotsRetired = 0;
    std::uint64_t defers = 0;
    std::uint64_t flushes = 0;

    void onCycle(Cycle, CycleClass) override { ++cycles; }

    void
    onGroupRetire(Cycle, InstIdx, unsigned slots) override
    {
        ++groupRetires;
        slotsRetired += slots;
    }

    void onDefer(Cycle, InstIdx, DynId, DeferReason) override { ++defers; }

    void onFlush(Cycle, FlushKind, InstIdx) override { ++flushes; }
};

TEST(ModelFactory, KindNamesAreTheFigure6Spellings)
{
    EXPECT_STREQ(cpuKindName(CpuKind::kBaseline), "base");
    EXPECT_STREQ(cpuKindName(CpuKind::kTwoPass), "2P");
    EXPECT_STREQ(cpuKindName(CpuKind::kTwoPassRegroup), "2Pre");
    EXPECT_STREQ(cpuKindName(CpuKind::kRunahead), "runahead");
}

TEST(ModelFactory, EveryKindBuildsACorrectModel)
{
    const workloads::Workload w = workloads::buildWorkload("130.li", 3);
    FunctionalCpu ref(w.program);
    const auto fr = ref.run();
    ASSERT_TRUE(fr.halted);

    for (unsigned k = 0; k < kNumCpuKinds; ++k) {
        const CpuKind kind = static_cast<CpuKind>(k);
        auto model = makeModel(kind, w.program, CoreConfig());
        ASSERT_NE(model, nullptr) << cpuKindName(kind);
        const RunResult r = model->run(20'000'000);
        ASSERT_TRUE(r.halted) << cpuKindName(kind);
        EXPECT_EQ(model->archRegs().fingerprint(),
                  ref.regs().fingerprint())
            << cpuKindName(kind);
        EXPECT_EQ(model->memState().fingerprint(),
                  ref.mem().fingerprint())
            << cpuKindName(kind);
    }
}

TEST(ModelFactory, RegroupKindAppliesTheOverride)
{
    // The factory's only config rewrite: kTwoPassRegroup forces
    // regrouping on even when the caller's config left it off.
    const workloads::Workload w =
        workloads::buildWorkload("181.mcf", 3);
    CoreConfig cfg; // regroup off by default

    auto plain = makeModel(CpuKind::kTwoPass, w.program, cfg);
    auto regroup = makeModel(CpuKind::kTwoPassRegroup, w.program, cfg);
    ASSERT_TRUE(plain->run(20'000'000).halted);
    ASSERT_TRUE(regroup->run(20'000'000).halted);

    ModelStats mp, mr;
    plain->collectStats(mp);
    regroup->collectStats(mr);
    EXPECT_EQ(mp.twopass.regroupedGroups, 0u);
    EXPECT_GT(mr.twopass.regroupedGroups, 0u);
}

TEST(CoreObserverSeam, FlushKindNamesAreStable)
{
    EXPECT_STREQ(flushKindName(FlushKind::kBDet), "bdet");
    EXPECT_STREQ(flushKindName(FlushKind::kConflict), "conflict");
}

/**
 * Every enumerator of the three exported name tables must carry a
 * real, unique name: the JSON metrics schema keys documents by these
 * strings, so an enumerator added without a name (the "?" fallback)
 * or colliding with an existing one is a schema break. This is the
 * CI tripwire the name-table headers point at.
 */
TEST(NameTables, EveryEnumeratorHasAUniqueName)
{
    const auto check = [](const std::vector<const char *> &names,
                          const char *table) {
        std::set<std::string> seen;
        for (const char *n : names) {
            EXPECT_STRNE(n, "?") << table << " has a nameless "
                                    "enumerator";
            EXPECT_TRUE(seen.insert(n).second)
                << table << " name '" << n << "' is duplicated";
        }
    };

    std::vector<const char *> cycle_names;
    for (unsigned c = 0; c < kNumCycleClasses; ++c)
        cycle_names.push_back(
            cycleClassName(static_cast<CycleClass>(c)));
    check(cycle_names, "CycleClass");

    std::vector<const char *> defer_names;
    for (unsigned r = 0; r < kNumDeferReasons; ++r)
        defer_names.push_back(
            deferReasonName(static_cast<DeferReason>(r)));
    check(defer_names, "DeferReason");

    std::vector<const char *> flush_names;
    for (unsigned k = 0; k < kNumFlushKinds; ++k)
        flush_names.push_back(
            flushKindName(static_cast<FlushKind>(k)));
    check(flush_names, "FlushKind");
}

/** Out-of-range values render as the "?" sentinel, never crash. */
TEST(NameTables, OutOfRangeValuesRenderAsSentinel)
{
    EXPECT_STREQ(
        cycleClassName(static_cast<CycleClass>(kNumCycleClasses)),
        "?");
    EXPECT_STREQ(
        deferReasonName(static_cast<DeferReason>(kNumDeferReasons)),
        "?");
    EXPECT_STREQ(
        flushKindName(static_cast<FlushKind>(kNumFlushKinds)), "?");
}

/** The snake_case spellings the schema pins, spelled out. */
TEST(NameTables, DeferReasonNamesAreTheSchemaSpellings)
{
    EXPECT_STREQ(deferReasonName(DeferReason::kNone), "none");
    EXPECT_STREQ(deferReasonName(DeferReason::kOperandInvalid),
                 "operand_invalid");
    EXPECT_STREQ(deferReasonName(DeferReason::kOperandInFlight),
                 "operand_in_flight");
    EXPECT_STREQ(deferReasonName(DeferReason::kMshrFull),
                 "mshr_full");
    EXPECT_STREQ(deferReasonName(DeferReason::kStoreBufferFull),
                 "store_buffer_full");
    EXPECT_STREQ(deferReasonName(DeferReason::kConflictRetry),
                 "conflict_retry");
    EXPECT_STREQ(deferReasonName(DeferReason::kNoFunctionalUnit),
                 "no_functional_unit");
}

/**
 * Attaches a CountingObserver to each model through the CpuModel seam
 * and cross-checks the event counts against the run result and the
 * model's own statistics. This pins the hook-site contract: one
 * onCycle per simulated cycle, slot counts that match retirement,
 * and (for two-pass) defer/flush events agreeing with the stats.
 */
TEST(CoreObserverSeam, CountsAgreeWithRunResultsAcrossModels)
{
    const workloads::Workload w =
        workloads::buildWorkload("181.mcf", 3);

    for (unsigned k = 0; k < kNumCpuKinds; ++k) {
        const CpuKind kind = static_cast<CpuKind>(k);
        CountingObserver obs;
        auto model = makeModel(kind, w.program, CoreConfig());
        model->setObserver(&obs);
        const RunResult r = model->run(20'000'000);
        ASSERT_TRUE(r.halted) << cpuKindName(kind);

        EXPECT_EQ(obs.cycles, r.cycles) << cpuKindName(kind);
        // The baseline reports whole groups even when a halt cuts the
        // slot walk short, so slots may exceed retires; never fewer.
        EXPECT_GE(obs.slotsRetired, r.instsRetired)
            << cpuKindName(kind);
        EXPECT_GE(obs.groupRetires, 1u) << cpuKindName(kind);

        ModelStats ms;
        model->collectStats(ms);
        if (kind == CpuKind::kTwoPass ||
            kind == CpuKind::kTwoPassRegroup) {
            EXPECT_EQ(obs.defers, ms.twopass.deferred)
                << cpuKindName(kind);
            EXPECT_EQ(obs.flushes,
                      ms.twopass.bDetMispredicts +
                          ms.twopass.storeConflictFlushes)
                << cpuKindName(kind);
        } else {
            EXPECT_EQ(obs.defers, 0u) << cpuKindName(kind);
            EXPECT_EQ(obs.flushes, 0u) << cpuKindName(kind);
        }
    }
}

/** A detached observer sees nothing; the run is unaffected. */
TEST(CoreObserverSeam, DetachStopsEventDelivery)
{
    const workloads::Workload w = workloads::buildWorkload("130.li", 3);
    CountingObserver obs;
    auto model = makeModel(CpuKind::kTwoPass, w.program, CoreConfig());
    model->setObserver(&obs);
    model->setObserver(nullptr);
    ASSERT_TRUE(model->run(20'000'000).halted);
    EXPECT_EQ(obs.cycles, 0u);
    EXPECT_EQ(obs.groupRetires, 0u);
    EXPECT_EQ(obs.defers, 0u);
}

} // namespace
