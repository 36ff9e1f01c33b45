/**
 * @file
 * The cycle-accounting conservation law: every simulated cycle of
 * the architectural pipe lands in exactly one Figure-6 class, so the
 * per-class counts of CycleAccounting must sum to RunResult.cycles —
 * for every model, on every bundled workload. The shared CpuModel
 * run loop makes this true by construction (one record() per cycle);
 * this test pins the invariant across all four model kinds so a
 * future model or run-loop change cannot silently double-count or
 * skip cycles.
 */

#include <gtest/gtest.h>

#include <string>

#include "cpu/core/model_factory.hh"
#include "workloads/workload.hh"

namespace
{

using namespace ff;
using namespace ff::cpu;

class AccountingInvariantTest
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AccountingInvariantTest, ClassCountsSumToRunCycles)
{
    const workloads::Workload w =
        workloads::buildWorkload(GetParam(), /*scale=*/3);
    for (unsigned k = 0; k < kNumCpuKinds; ++k) {
        const CpuKind kind = static_cast<CpuKind>(k);
        auto model = makeModel(kind, w.program, CoreConfig());
        const RunResult r = model->run(20'000'000);
        ASSERT_TRUE(r.halted)
            << w.name << " on " << cpuKindName(kind);
        EXPECT_EQ(model->cycleAccounting().total(), r.cycles)
            << w.name << " on " << cpuKindName(kind);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, AccountingInvariantTest,
    ::testing::ValuesIn(workloads::workloadNames()),
    [](const auto &info) {
        std::string n = info.param;
        for (char &c : n)
            if (c == '.')
                c = '_';
        return n;
    });

/** The invariant holds on a truncated (non-halting) run too. */
TEST(AccountingInvariant, HoldsWhenMaxCyclesTruncatesTheRun)
{
    const workloads::Workload w =
        workloads::buildWorkload("181.mcf", 3);
    for (unsigned k = 0; k < kNumCpuKinds; ++k) {
        const CpuKind kind = static_cast<CpuKind>(k);
        auto model = makeModel(kind, w.program, CoreConfig());
        const RunResult r = model->run(1000);
        EXPECT_FALSE(r.halted) << cpuKindName(kind);
        EXPECT_EQ(r.cycles, 1000u) << cpuKindName(kind);
        EXPECT_EQ(model->cycleAccounting().total(), r.cycles)
            << cpuKindName(kind);
    }
}

} // namespace
