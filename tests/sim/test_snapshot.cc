/**
 * @file
 * Snapshot correctness: the warm-up fork machinery is only usable if
 * a restored model is bit-for-bit the machine that was saved. Every
 * model kind is saved at a mid-run cycle, restored into a fresh
 * instance, run to completion, and compared against an uninterrupted
 * run — full sim::statsReport() text (every counter in the simulator) plus
 * architectural fingerprints. The container format and warm-up
 * forking in sweeps are covered on top.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "cpu/core/model_factory.hh"
#include "sim/batch.hh"
#include "sim/harness.hh"
#include "sim/snapshot.hh"
#include "workloads/workload.hh"

namespace
{

using namespace ff;

constexpr int kScale = 6;

const std::vector<sim::CpuKind> &
allKinds()
{
    static const std::vector<sim::CpuKind> kinds = {
        sim::CpuKind::kBaseline, sim::CpuKind::kTwoPass,
        sim::CpuKind::kTwoPassRegroup, sim::CpuKind::kRunahead};
    return kinds;
}

/** Shared workloads, built once per test binary. */
const std::vector<workloads::Workload> &
suite()
{
    static const std::vector<workloads::Workload> s = [] {
        std::vector<workloads::Workload> v;
        v.push_back(workloads::buildWorkload("181.mcf", kScale));
        v.push_back(workloads::buildWorkload("129.compress", kScale));
        return v;
    }();
    return s;
}

/**
 * A deterministic "random" mid-run cycle: derived from the program
 * and kind so every (workload, kind) pair snapshots somewhere
 * different, but reruns reproduce failures exactly.
 */
std::uint64_t
midRunCycle(const isa::Program &prog, sim::CpuKind kind)
{
    std::uint64_t h = prog.instStreamHash() * 0x9e3779b97f4a7c15ULL +
                      static_cast<std::uint64_t>(kind);
    h ^= h >> 33;
    return 500 + h % 4000;
}

TEST(Snapshot, RoundTripMidRunEveryKindEveryWorkload)
{
    const cpu::CoreConfig cfg = sim::table1Config();
    for (const workloads::Workload &w : suite()) {
        for (const sim::CpuKind kind : allKinds()) {
            SCOPED_TRACE(w.name + " / " + sim::cpuKindName(kind));

            // Uninterrupted reference run.
            const std::unique_ptr<cpu::CpuModel> ref =
                cpu::makeModel(kind, w.program, cfg);
            const cpu::RunResult refRun =
                ref->run(sim::kDefaultMaxCycles);
            ASSERT_TRUE(refRun.halted);

            // Interrupted run: stop mid-flight, snapshot, restore
            // into a fresh model, continue to completion.
            const std::uint64_t cut = midRunCycle(w.program, kind);
            const std::unique_ptr<cpu::CpuModel> first =
                cpu::makeModel(kind, w.program, cfg);
            const cpu::RunResult firstRun = first->run(cut);
            ASSERT_FALSE(firstRun.halted)
                << "workload too small to cut at " << cut;
            EXPECT_EQ(first->currentCycle(), cut);
            const sim::Snapshot snap =
                sim::saveSnapshot(*first, kind, w.program, cfg);
            EXPECT_EQ(snap.cycle, cut);

            const std::unique_ptr<cpu::CpuModel> second =
                cpu::makeModel(kind, w.program, cfg);
            sim::restoreSnapshot(*second, snap, kind, w.program, cfg);
            const cpu::RunResult resumed =
                second->run(sim::kDefaultMaxCycles);

            ASSERT_TRUE(resumed.halted);
            EXPECT_EQ(resumed.cycles, refRun.cycles);
            EXPECT_EQ(resumed.instsRetired, refRun.instsRetired);
            EXPECT_EQ(resumed.groupsRetired, refRun.groupsRetired);
            EXPECT_EQ(second->archRegs().fingerprint(),
                      ref->archRegs().fingerprint());
            EXPECT_EQ(second->memState().fingerprint(),
                      ref->memState().fingerprint());
            // The statsReport dump covers every counter the model
            // keeps (accounting, caches, predictor, model stats):
            // textual equality means the restored machine is
            // statistically indistinguishable too.
            EXPECT_EQ(
                sim::statsReport(sim::collectOutcome(*second, kind, resumed)),
                sim::statsReport(sim::collectOutcome(*ref, kind, refRun)));
        }
    }
}

/** Records every cycle's Figure-6 class. */
struct ClassRecorder : cpu::CoreObserver
{
    std::vector<cpu::CycleClass> classes;

    void
    onCycle(Cycle, cpu::CycleClass cls) override
    {
        classes.push_back(cls);
    }
};

TEST(Snapshot, RoundTripInsideHeldLoadStall)
{
    // The B-pipe holds a load-stall verdict until the blocking load's
    // ready cycle instead of rescanning its window. The snapshot does
    // not carry that memo, so a model restored mid-stall recomputes it
    // and must still run on bit-identically.
    const cpu::CoreConfig cfg = sim::table1Config();
    const workloads::Workload &w = suite()[0];
    ASSERT_EQ(w.name, "181.mcf");
    for (const sim::CpuKind kind :
         {sim::CpuKind::kTwoPass, sim::CpuKind::kTwoPassRegroup}) {
        SCOPED_TRACE(sim::cpuKindName(kind));
        ClassRecorder rec;
        const std::unique_ptr<cpu::CpuModel> probe =
            cpu::makeModel(kind, w.program, cfg);
        probe->setObserver(&rec);
        ASSERT_TRUE(probe->run(sim::kDefaultMaxCycles).halted);
        // Cut two cycles into a load stall that lasts past the cut:
        // its verdict was computed at its first cycle and is held.
        std::uint64_t cut = 0;
        for (std::uint64_t c = 1000; c < rec.classes.size(); ++c) {
            if (rec.classes[c - 2] == cpu::CycleClass::kLoadStall &&
                rec.classes[c - 1] == cpu::CycleClass::kLoadStall &&
                rec.classes[c] == cpu::CycleClass::kLoadStall) {
                cut = c;
                break;
            }
        }
        ASSERT_NE(cut, 0u);

        const std::unique_ptr<cpu::CpuModel> ref =
            cpu::makeModel(kind, w.program, cfg);
        ASSERT_FALSE(ref->run(cut + 300).halted);
        const sim::Snapshot ref_later =
            sim::saveSnapshot(*ref, kind, w.program, cfg);
        ref->rearmResume();
        const cpu::RunResult ref_run = ref->run(sim::kDefaultMaxCycles);

        const std::unique_ptr<cpu::CpuModel> first =
            cpu::makeModel(kind, w.program, cfg);
        ASSERT_FALSE(first->run(cut).halted);
        const std::unique_ptr<cpu::CpuModel> second =
            cpu::makeModel(kind, w.program, cfg);
        sim::restoreSnapshot(*second,
                             sim::saveSnapshot(*first, kind, w.program,
                                               cfg),
                             kind, w.program, cfg);
        ASSERT_FALSE(second->run(cut + 300).halted);
        EXPECT_EQ(sim::saveSnapshot(*second, kind, w.program, cfg).state,
                  ref_later.state);
        second->rearmResume();
        const cpu::RunResult resumed = second->run(sim::kDefaultMaxCycles);

        ASSERT_TRUE(resumed.halted);
        EXPECT_EQ(resumed.cycles, ref_run.cycles);
        EXPECT_EQ(resumed.instsRetired, ref_run.instsRetired);
        EXPECT_EQ(second->archRegs().fingerprint(),
                  ref->archRegs().fingerprint());
        EXPECT_EQ(second->memState().fingerprint(),
                  ref->memState().fingerprint());
        EXPECT_EQ(
            sim::statsReport(sim::collectOutcome(*second, kind, resumed)),
            sim::statsReport(sim::collectOutcome(*ref, kind, ref_run)));
    }
}

TEST(Snapshot, SaveIsReadOnlyAndRepeatable)
{
    const cpu::CoreConfig cfg = sim::table1Config();
    const workloads::Workload &w = suite().front();
    const sim::CpuKind kind = sim::CpuKind::kTwoPass;

    const std::unique_ptr<cpu::CpuModel> m =
        cpu::makeModel(kind, w.program, cfg);
    (void)m->run(1500);
    const sim::Snapshot a = sim::saveSnapshot(*m, kind, w.program, cfg);
    const sim::Snapshot b = sim::saveSnapshot(*m, kind, w.program, cfg);
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(a.cycle, b.cycle);
}

TEST(Snapshot, EncodeDecodeRoundTrip)
{
    const cpu::CoreConfig cfg = sim::table1Config();
    const workloads::Workload &w = suite().front();
    const sim::CpuKind kind = sim::CpuKind::kTwoPassRegroup;

    const std::unique_ptr<cpu::CpuModel> m =
        cpu::makeModel(kind, w.program, cfg);
    (void)m->run(1200);
    const sim::Snapshot snap =
        sim::saveSnapshot(*m, kind, w.program, cfg);

    const std::vector<std::uint8_t> bytes = sim::encodeSnapshot(snap);
    sim::Snapshot back;
    ASSERT_TRUE(sim::decodeSnapshot(bytes, back));
    EXPECT_EQ(back.kind, snap.kind);
    EXPECT_EQ(back.cycle, snap.cycle);
    EXPECT_EQ(back.programHash, snap.programHash);
    EXPECT_EQ(back.configHash, snap.configHash);
    EXPECT_EQ(back.state, snap.state);
}

TEST(Snapshot, DecodeRejectsCorruptContainers)
{
    const cpu::CoreConfig cfg = sim::table1Config();
    const workloads::Workload &w = suite().front();
    const std::unique_ptr<cpu::CpuModel> m =
        cpu::makeModel(sim::CpuKind::kBaseline, w.program, cfg);
    (void)m->run(800);
    const std::vector<std::uint8_t> bytes = sim::encodeSnapshot(
        sim::saveSnapshot(*m, sim::CpuKind::kBaseline, w.program,
                          cfg));

    sim::Snapshot out;
    // Truncation at several depths.
    for (const std::size_t len :
         {std::size_t{0}, std::size_t{3}, std::size_t{10},
          bytes.size() / 2, bytes.size() - 1}) {
        const std::vector<std::uint8_t> cut(bytes.begin(),
                                            bytes.begin() + len);
        EXPECT_FALSE(sim::decodeSnapshot(cut, out)) << len;
    }
    // Bad magic / version.
    std::vector<std::uint8_t> bad = bytes;
    bad[0] ^= 0xff;
    EXPECT_FALSE(sim::decodeSnapshot(bad, out));
    bad = bytes;
    bad[4] ^= 0xff;
    EXPECT_FALSE(sim::decodeSnapshot(bad, out));
    // Trailing garbage.
    bad = bytes;
    bad.push_back(0);
    EXPECT_FALSE(sim::decodeSnapshot(bad, out));
}

TEST(SnapshotDeathTest, StaleFormatVersionIsFatal)
{
    // A container written by the previous format version must be
    // rejected — and decodeSnapshotOrDie() must say why, naming both
    // the container's version and the version this build expects.
    const cpu::CoreConfig cfg = sim::table1Config();
    const workloads::Workload &w = suite().front();
    const std::unique_ptr<cpu::CpuModel> m =
        cpu::makeModel(sim::CpuKind::kBaseline, w.program, cfg);
    (void)m->run(800);
    const std::vector<std::uint8_t> bytes = sim::encodeSnapshot(
        sim::saveSnapshot(*m, sim::CpuKind::kBaseline, w.program,
                          cfg));

    // The good container decodes fatally-free.
    const sim::Snapshot ok = sim::decodeSnapshotOrDie(bytes);
    EXPECT_EQ(ok.kind, sim::CpuKind::kBaseline);

    // Rewrite the version field (bytes 4..8, little-endian) to v(N-1).
    std::vector<std::uint8_t> stale = bytes;
    const std::uint32_t prev = sim::kSnapshotFormatVersion - 1;
    std::memcpy(stale.data() + 4, &prev, sizeof(prev));

    sim::Snapshot out;
    EXPECT_FALSE(sim::decodeSnapshot(stale, out));
    EXPECT_DEATH(sim::decodeSnapshotOrDie(stale),
                 "format version " + std::to_string(prev) +
                     " but this build reads version " +
                     std::to_string(sim::kSnapshotFormatVersion));

    // Bad magic and truncation die with their own diagnosis.
    std::vector<std::uint8_t> bad = bytes;
    bad[0] ^= 0xff;
    EXPECT_DEATH(sim::decodeSnapshotOrDie(bad), "bad magic");
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + 6);
    EXPECT_DEATH(sim::decodeSnapshotOrDie(cut),
                 "truncated or corrupt");
}

TEST(Snapshot, ConfigHashSeparatesEveryKnob)
{
    const cpu::CoreConfig base = sim::table1Config();
    const std::uint64_t h0 = sim::canonicalConfigHash(base);
    EXPECT_EQ(h0, sim::canonicalConfigHash(base));

    cpu::CoreConfig c = base;
    c.couplingQueueSize = 32;
    EXPECT_NE(sim::canonicalConfigHash(c), h0);
    c = base;
    c.feedbackEnabled = false;
    EXPECT_NE(sim::canonicalConfigHash(c), h0);
    c = base;
    c.mem.memoryLatency += 1;
    EXPECT_NE(sim::canonicalConfigHash(c), h0);
    c = base;
    c.mem.l2.assoc *= 2;
    EXPECT_NE(sim::canonicalConfigHash(c), h0);
    c = base;
    c.limits.issueWidth = 4;
    EXPECT_NE(sim::canonicalConfigHash(c), h0);
    c = base;
    c.predictorKind = branch::PredictorKind::kBimodal;
    EXPECT_NE(sim::canonicalConfigHash(c), h0);
}

TEST(Snapshot, ProgramContentHashCoversDataImage)
{
    isa::Program a = suite().front().program;
    isa::Program b = a;
    b.poke64(0x9000, 0xfeedULL);
    // Same instruction stream, different initial data: the verify
    // memo may treat them alike, but snapshots and cache keys must
    // not.
    EXPECT_EQ(a.instStreamHash(), b.instStreamHash());
    EXPECT_NE(a.contentHash(), b.contentHash());
}

std::vector<std::uint8_t>
memoryBytes(const memory::SparseMemory &m)
{
    serial::Writer w;
    m.save(w);
    return w.take();
}

TEST(Snapshot, RestoredWritesReachNeitherImageNorSource)
{
    // A restore re-shares every page still equal to the image; the
    // restored model's later stores must clone those pages.
    const cpu::CoreConfig cfg = sim::table1Config();
    const workloads::Workload &w = suite().front();
    const sim::CpuKind kind = sim::CpuKind::kTwoPass;
    const std::vector<std::uint8_t> image =
        memoryBytes(w.program.dataImage());

    const std::unique_ptr<cpu::CpuModel> source =
        cpu::makeModel(kind, w.program, cfg);
    (void)source->run(midRunCycle(w.program, kind));
    const sim::Snapshot snap =
        sim::saveSnapshot(*source, kind, w.program, cfg);
    const std::vector<std::uint8_t> source_mem =
        memoryBytes(source->memState());
    const std::uint64_t source_fp = source->memState().fingerprint();

    const std::unique_ptr<cpu::CpuModel> restored =
        cpu::makeModel(kind, w.program, cfg);
    sim::restoreSnapshot(*restored, snap, kind, w.program, cfg);
    EXPECT_EQ(memoryBytes(restored->memState()), source_mem);
    ASSERT_TRUE(restored->run(sim::kDefaultMaxCycles).halted);
    EXPECT_NE(restored->memState().fingerprint(), source_fp);
    EXPECT_EQ(restored->memState().fingerprint(),
              sim::simulate(w.program, kind, cfg).memFingerprint);

    EXPECT_EQ(memoryBytes(w.program.dataImage()), image);
    EXPECT_EQ(memoryBytes(source->memState()), source_mem);
    EXPECT_EQ(source->memState().fingerprint(), source_fp);
}

TEST(SnapshotDeathTest, MalformedPageTableIsStructurallyCorrupt)
{
    // Rewrite the SMEM section's second page number to repeat the
    // first: the page table no longer strictly increases.
    const cpu::CoreConfig cfg = sim::table1Config();
    const workloads::Workload &w = suite().front();
    const sim::CpuKind kind = sim::CpuKind::kBaseline;
    const std::unique_ptr<cpu::CpuModel> m =
        cpu::makeModel(kind, w.program, cfg);
    (void)m->run(1000);
    sim::Snapshot snap = sim::saveSnapshot(*m, kind, w.program, cfg);

    serial::Writer tag;
    tag.u32(serial::tag("SMEM"));
    const std::vector<std::uint8_t> &t = tag.buffer();
    std::vector<std::uint8_t> &s = snap.state;
    const auto at = std::search(s.begin(), s.end(), t.begin(), t.end());
    ASSERT_NE(at, s.end());
    const std::size_t count = static_cast<std::size_t>(at - s.begin()) + 4;
    const std::size_t first = count + 8;
    const std::size_t second = first + 8 + memory::SparseMemory::kPageBytes;
    serial::Reader pages(&s[count], 8);
    ASSERT_GE(pages.u64(), 2u);
    std::memcpy(&s[second], &s[first], 8);

    const std::unique_ptr<cpu::CpuModel> other =
        cpu::makeModel(kind, w.program, cfg);
    EXPECT_DEATH(sim::restoreSnapshot(*other, snap, kind, w.program, cfg),
                 "structurally corrupt snapshot");
}

TEST(SnapshotDeathTest, RestoreRejectsMismatchedIdentity)
{
    const cpu::CoreConfig cfg = sim::table1Config();
    const workloads::Workload &w = suite().front();
    const sim::CpuKind kind = sim::CpuKind::kTwoPass;
    const std::unique_ptr<cpu::CpuModel> m =
        cpu::makeModel(kind, w.program, cfg);
    (void)m->run(1000);
    const sim::Snapshot snap =
        sim::saveSnapshot(*m, kind, w.program, cfg);

    // Wrong kind.
    {
        std::unique_ptr<cpu::CpuModel> other = cpu::makeModel(
            sim::CpuKind::kBaseline, w.program, cfg);
        EXPECT_DEATH(sim::restoreSnapshot(*other, snap,
                                          sim::CpuKind::kBaseline,
                                          w.program, cfg),
                     "snapshot");
    }
    // Wrong config.
    {
        cpu::CoreConfig small = cfg;
        small.couplingQueueSize = 16;
        std::unique_ptr<cpu::CpuModel> other =
            cpu::makeModel(kind, w.program, small);
        EXPECT_DEATH(sim::restoreSnapshot(*other, snap, kind,
                                          w.program, small),
                     "configuration");
    }
}

TEST(Snapshot, WarmupPastHaltReportsCompletedOutcome)
{
    const cpu::CoreConfig cfg = sim::table1Config();
    const workloads::Workload &w = suite().front();
    const sim::SimOutcome cold =
        sim::simulate(w.program, sim::CpuKind::kBaseline, cfg);

    const sim::WarmupResult warm = sim::runWarmup(
        w.program, sim::CpuKind::kBaseline, cfg,
        cold.run.cycles + 1000, sim::kDefaultMaxCycles);
    ASSERT_TRUE(warm.completed);
    EXPECT_EQ(warm.outcome.run.cycles, cold.run.cycles);
    EXPECT_EQ(warm.outcome.memFingerprint, cold.memFingerprint);
}

TEST(Snapshot, WarmupThenResumeMatchesCold)
{
    const cpu::CoreConfig cfg = sim::table1Config();
    for (const sim::CpuKind kind : allKinds()) {
        SCOPED_TRACE(sim::cpuKindName(kind));
        const workloads::Workload &w = suite()[1];
        const sim::SimOutcome cold = sim::simulate(w.program, kind, cfg);

        const sim::WarmupResult warm =
            sim::runWarmup(w.program, kind, cfg, 2000);
        ASSERT_FALSE(warm.completed);
        const sim::SimOutcome forked = sim::resumeSnapshot(
            w.program, kind, cfg, warm.snap);

        EXPECT_EQ(forked.run.cycles, cold.run.cycles);
        EXPECT_EQ(forked.run.instsRetired, cold.run.instsRetired);
        EXPECT_EQ(forked.regFingerprint, cold.regFingerprint);
        EXPECT_EQ(forked.memFingerprint, cold.memFingerprint);
        EXPECT_EQ(forked.checksum, cold.checksum);
        EXPECT_EQ(forked.twopass.deferred, cold.twopass.deferred);
        EXPECT_EQ(forked.branches.mispredicts,
                  cold.branches.mispredicts);
        EXPECT_EQ(forked.cycles.counts, cold.cycles.counts);
        EXPECT_EQ(forked.accesses.counts, cold.accesses.counts);
    }
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
        EXPECT_EQ(a[i].cycles.counts, b[i].cycles.counts);
        EXPECT_EQ(a[i].twopass.deferred, b[i].twopass.deferred);
        EXPECT_EQ(a[i].twopass.dispatched, b[i].twopass.dispatched);
        EXPECT_EQ(a[i].branches.mispredicts,
                  b[i].branches.mispredicts);
        EXPECT_EQ(a[i].runahead.episodes, b[i].runahead.episodes);
    }
}

TEST(Snapshot, ForkedSweepBitIdenticalToColdAtAnyJobCount)
{
    cpu::CoreConfig nofb = sim::table1Config();
    nofb.feedbackEnabled = false;
    const std::vector<sim::SweepVariant> variants = {
        {sim::CpuKind::kBaseline, {}},
        {sim::CpuKind::kTwoPass, {}},
        {sim::CpuKind::kTwoPass, {}}, // duplicate cell: its own warm-up
        {sim::CpuKind::kTwoPass, nofb},
        {sim::CpuKind::kTwoPassRegroup, {}},
        {sim::CpuKind::kRunahead, {}},
    };

    const auto cold = sim::runSweep(suite(), variants, 1);

    sim::SweepOptions opts;
    opts.warmupCycles = 1800;
    opts.threads = 1;
    const auto forked1 = sim::runSweep(suite(), variants, opts);
    expectIdentical(cold, forked1, "cold vs forked jobs=1");

    opts.threads = 4;
    const auto forked4 = sim::runSweep(suite(), variants, opts);
    expectIdentical(cold, forked4, "cold vs forked jobs=4");
}

TEST(SnapshotDeathTest, ResumeBudgetAtOrBelowWarmupPointIsFatal)
{
    // resumeSnapshot()'s budget counts total simulated cycles from
    // cycle 0 (header contract): a budget at or below the snapshot
    // cycle leaves no room to advance and must be rejected instead
    // of reporting a spurious timeout.
    const cpu::CoreConfig cfg = sim::table1Config();
    const workloads::Workload &w = suite().front();
    const sim::CpuKind kind = sim::CpuKind::kBaseline;
    const sim::WarmupResult warm =
        sim::runWarmup(w.program, kind, cfg, 2000);
    ASSERT_FALSE(warm.completed);
    ASSERT_EQ(warm.snap.cycle, 2000u);

    EXPECT_DEATH(sim::resumeSnapshot(w.program, kind, cfg, warm.snap,
                                     warm.snap.cycle),
                 "does not reach past the snapshot's warm-up point");
    EXPECT_DEATH(sim::resumeSnapshot(w.program, kind, cfg, warm.snap,
                                     warm.snap.cycle - 1),
                 "does not reach past the snapshot's warm-up point");
    // A budget with room past the warm-up point is legal.
    const sim::SimOutcome ok = sim::resumeSnapshot(
        w.program, kind, cfg, warm.snap, sim::kDefaultMaxCycles);
    EXPECT_TRUE(ok.run.halted);
}

TEST(Snapshot, ChainedSnapshotByteIdenticalToStraightLine)
{
    // Snapshot-chain determinism: checkpointing at N, resuming, and
    // checkpointing again at 2N must produce the same bytes as one
    // uninterrupted run snapshotted at 2N. Sampled simulation leans
    // on this transitivity — any divergence would compound across a
    // checkpoint chain.
    const cpu::CoreConfig cfg = sim::table1Config();
    for (const workloads::Workload &w : suite()) {
        for (const sim::CpuKind kind : allKinds()) {
            SCOPED_TRACE(w.name + " / " + sim::cpuKindName(kind));
            const std::uint64_t n =
                500 + midRunCycle(w.program, kind) % 1500;

            // Chained: run to N, snapshot, restore into a fresh
            // model, run to 2N (total cycles), snapshot again.
            const std::unique_ptr<cpu::CpuModel> first =
                cpu::makeModel(kind, w.program, cfg);
            ASSERT_FALSE(first->run(n).halted);
            const sim::Snapshot at_n =
                sim::saveSnapshot(*first, kind, w.program, cfg);

            const std::unique_ptr<cpu::CpuModel> resumed =
                cpu::makeModel(kind, w.program, cfg);
            sim::restoreSnapshot(*resumed, at_n, kind, w.program, cfg);
            ASSERT_FALSE(resumed->run(2 * n).halted);
            const sim::Snapshot chained =
                sim::saveSnapshot(*resumed, kind, w.program, cfg);

            // Straight line: one cold run to 2N.
            const std::unique_ptr<cpu::CpuModel> straight =
                cpu::makeModel(kind, w.program, cfg);
            ASSERT_FALSE(straight->run(2 * n).halted);
            const sim::Snapshot direct =
                sim::saveSnapshot(*straight, kind, w.program, cfg);

            EXPECT_EQ(chained.cycle, direct.cycle);
            EXPECT_EQ(chained.state, direct.state);
        }
    }
}

TEST(Snapshot, ForkedSweepZeroWarmupFallsBackToPlainBatch)
{
    const std::vector<sim::SweepVariant> variants = {
        {sim::CpuKind::kBaseline, {}},
    };
    sim::SweepOptions opts; // warmupCycles = 0
    opts.threads = 2;
    const auto plain = sim::runSweep(suite(), variants, 2);
    const auto viaOpts = sim::runSweep(suite(), variants, opts);
    expectIdentical(plain, viaOpts, "threads-arg vs options-arg");
}

} // namespace
