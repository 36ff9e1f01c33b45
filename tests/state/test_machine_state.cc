/**
 * @file
 * MachineState structure-of-arrays tests at the container level: the
 * coupling-queue ring (field gather, wrap-around, snapshot
 * round-trip), the scoreboard's packed busy superset across
 * save/restore, the dirty-mask-driven run-ahead checkpoint, the
 * conflict-retry sorted set, and the A-file packed V/S masks. The
 * whole-model round-trips (every kind x workload, statsReport
 * equality) live in tests/sim/test_snapshot.cc; these tests pin the
 * SoA mechanics those round-trips are built on.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/serialize.hh"
#include "cpu/state/machine_state.hh"

namespace
{

using namespace ff;
using namespace ff::cpu;

CqEntry
makeEntry(DynId id, InstIdx idx)
{
    CqEntry e;
    e.idx = idx;
    e.id = id;
    e.enqueuedAt = 10 + id;
    e.status = (id % 2) ? CqStatus::kPreExecuted : CqStatus::kDeferred;
    e.reason =
        (id % 2) ? DeferReason::kNone : DeferReason::kOperandInvalid;
    e.groupEnd = (id % 3) == 0;
    e.predTrue = true;
    e.writesDst = (id % 2) != 0;
    e.dstVal = 0x1000 + id;
    e.dst2Val = 0x2000 + id;
    e.readyAt = 20 + id;
    e.isLoad = (id % 5) == 0;
    e.isStore = (id % 7) == 0 && !e.isLoad;
    e.addr = 0x4000 + id * 8;
    e.size = 8;
    e.isBranch = false;
    e.fallthrough = idx + 1;
    return e;
}

/** A branch entry carrying a token unlike the default one. */
CqEntry
makeBranchEntry(DynId id, InstIdx idx)
{
    CqEntry e = makeEntry(id, idx);
    e.isLoad = false;
    e.isStore = false;
    e.isBranch = true;
    e.predictedTaken = true;
    e.prediction.taken = true;
    e.prediction.index = 0x155;
    e.prediction.historyBefore = 0x2aa;
    e.prediction.index2 = 7;
    e.prediction.chooserIndex = 9;
    e.prediction.component1Taken = true;
    e.prediction.usedComponent2 = true;
    return e;
}

void
expectSamePrediction(const branch::Prediction &a,
                     const branch::Prediction &b)
{
    EXPECT_EQ(a.taken, b.taken);
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.historyBefore, b.historyBefore);
    EXPECT_EQ(a.index2, b.index2);
    EXPECT_EQ(a.chooserIndex, b.chooserIndex);
    EXPECT_EQ(a.component1Taken, b.component1Taken);
    EXPECT_EQ(a.component2Taken, b.component2Taken);
    EXPECT_EQ(a.usedComponent2, b.usedComponent2);
}

/** The bytes save() writes for @p cq. */
std::vector<std::uint8_t>
saved(const CouplingQueue &cq)
{
    serial::Writer w;
    cq.save(w);
    return w.buffer();
}

void
expectSameEntry(const CqEntry &a, const CqEntry &b)
{
    EXPECT_EQ(a.idx, b.idx);
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.enqueuedAt, b.enqueuedAt);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.reason, b.reason);
    EXPECT_EQ(a.groupEnd, b.groupEnd);
    EXPECT_EQ(a.predTrue, b.predTrue);
    EXPECT_EQ(a.writesDst, b.writesDst);
    EXPECT_EQ(a.writesDst2, b.writesDst2);
    EXPECT_EQ(a.dstVal, b.dstVal);
    EXPECT_EQ(a.dst2Val, b.dst2Val);
    EXPECT_EQ(a.readyAt, b.readyAt);
    EXPECT_EQ(a.isLoad, b.isLoad);
    EXPECT_EQ(a.isStore, b.isStore);
    EXPECT_EQ(a.addr, b.addr);
    EXPECT_EQ(a.size, b.size);
    EXPECT_EQ(a.isBranch, b.isBranch);
    EXPECT_EQ(a.fallthrough, b.fallthrough);
}

TEST(CouplingQueueSoA, FieldGatherMatchesPushedEntry)
{
    CouplingQueue cq(8);
    const CqEntry e = makeEntry(5, 3);
    cq.push(e);
    expectSameEntry(cq.entry(0), e);
    // Per-field accessors agree with the gathered view.
    EXPECT_EQ(cq.id(0), e.id);
    EXPECT_EQ(cq.idx(0), e.idx);
    EXPECT_EQ(cq.enqueuedAt(0), e.enqueuedAt);
    EXPECT_EQ(cq.readyAt(0), e.readyAt);
    EXPECT_EQ(cq.preExecuted(0), e.status == CqStatus::kPreExecuted);
    EXPECT_EQ(cq.isLoad(0), e.isLoad);
    EXPECT_EQ(cq.dstVal(0), e.dstVal);
}

TEST(CouplingQueueSoA, RingWrapKeepsLogicalOrder)
{
    // Capacity 4: push 4, pop 3, push 3 — the ring wraps physically
    // but logical indices must stay FIFO-ordered.
    CouplingQueue cq(4);
    for (DynId id = 1; id <= 4; ++id)
        cq.push(makeEntry(id, static_cast<InstIdx>(id)));
    cq.pop();
    cq.pop();
    cq.pop();
    for (DynId id = 5; id <= 7; ++id)
        cq.push(makeEntry(id, static_cast<InstIdx>(id)));
    ASSERT_EQ(cq.size(), 4u);
    ASSERT_TRUE(cq.full());
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(cq.id(i), static_cast<DynId>(4 + i));
        expectSameEntry(cq.entry(i),
                        makeEntry(4 + i, static_cast<InstIdx>(4 + i)));
    }
}

TEST(CouplingQueueSoA, SaveRestoreRoundTripsAWrappedRing)
{
    CouplingQueue cq(4);
    for (DynId id = 1; id <= 4; ++id)
        cq.push(makeEntry(id, static_cast<InstIdx>(id)));
    cq.pop();
    cq.pop();
    cq.push(makeEntry(5, 5));

    serial::Writer w;
    cq.save(w);

    CouplingQueue back(4);
    serial::Reader r(w.buffer());
    back.restore(r);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(back.size(), cq.size());
    for (std::size_t i = 0; i < cq.size(); ++i)
        expectSameEntry(back.entry(i), cq.entry(i));
    EXPECT_EQ(back.deferredStores(), cq.deferredStores());

    // Restored state re-encodes to identical bytes (the restore
    // compacts the ring; the encoding is logical-order, so the bytes
    // must not change).
    serial::Writer w2;
    back.save(w2);
    EXPECT_EQ(w.buffer(), w2.buffer());
}

TEST(CouplingQueueSoA, RestoreRejectsForeignCapacity)
{
    CouplingQueue cq(4);
    cq.push(makeEntry(1, 1));
    serial::Writer w;
    cq.save(w);

    CouplingQueue other(8);
    serial::Reader r(w.buffer());
    other.restore(r);
    EXPECT_FALSE(r.ok());
}

TEST(CouplingQueueSoA, NonPowerOfTwoCapacityWrapsInOrder)
{
    // Capacity 6: full at 6 entries whatever the arrays' length, and
    // four pops then four pushes carry the tail past the wrap.
    CouplingQueue cq(6);
    for (DynId id = 1; id <= 6; ++id)
        cq.push(makeEntry(id, static_cast<InstIdx>(id)));
    EXPECT_TRUE(cq.full());
    EXPECT_EQ(cq.freeSlots(), 0u);
    EXPECT_EQ(cq.capacity(), 6u);
    for (int k = 0; k < 4; ++k)
        cq.pop();
    EXPECT_EQ(cq.freeSlots(), 4u);
    for (DynId id = 7; id <= 10; ++id)
        cq.push(makeEntry(id, static_cast<InstIdx>(id)));
    ASSERT_TRUE(cq.full());
    for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_EQ(cq.id(i), static_cast<DynId>(5 + i));
        expectSameEntry(cq.entry(i),
                        makeEntry(5 + i, static_cast<InstIdx>(5 + i)));
    }

    // The wrapped queue encodes as one filled in logical order.
    CouplingQueue rebuilt(6);
    for (DynId id = 5; id <= 10; ++id)
        rebuilt.push(makeEntry(id, static_cast<InstIdx>(id)));
    const std::vector<std::uint8_t> bytes = saved(cq);
    EXPECT_EQ(bytes, saved(rebuilt));
    EXPECT_EQ(cq.deferredStores(), rebuilt.deferredStores());

    CouplingQueue back(6);
    serial::Reader r(bytes);
    back.restore(r);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(saved(back), bytes);

    // A queue of another capacity, power of two or not, rejects it.
    CouplingQueue eight(8);
    serial::Reader r8(bytes);
    eight.restore(r8);
    EXPECT_FALSE(r8.ok());
    const std::vector<std::uint8_t> eight_bytes = saved(eight);
    CouplingQueue six(6);
    serial::Reader r6(eight_bytes);
    six.restore(r6);
    EXPECT_FALSE(r6.ok());
}

TEST(CouplingQueueSoA, PredictionIsKeptForBranchEntries)
{
    CouplingQueue cq(4);
    const CqEntry e = makeBranchEntry(1, 1);
    cq.push(e);
    expectSamePrediction(cq.entry(0).prediction, e.prediction);
    expectSamePrediction(cq.prediction(0), e.prediction);

    const std::vector<std::uint8_t> bytes = saved(cq);
    CouplingQueue back(4);
    serial::Reader r(bytes);
    back.restore(r);
    ASSERT_TRUE(r.ok());
    expectSamePrediction(back.entry(0).prediction, e.prediction);
    EXPECT_EQ(saved(back), bytes);
}

TEST(CouplingQueueSoA, ReusedSlotHasNoStalePrediction)
{
    // Capacity 2: the branch fills slot 0 and leaves; the third push
    // wraps a non-branch entry into that slot.
    CouplingQueue cq(2);
    cq.push(makeBranchEntry(1, 1));
    cq.pop();
    cq.push(makeEntry(2, 2));
    cq.push(makeEntry(3, 3));
    ASSERT_EQ(cq.size(), 2u);
    expectSamePrediction(cq.entry(1).prediction, branch::Prediction{});

    // It saves the bytes of a queue that never held the branch.
    CouplingQueue fresh(2);
    fresh.push(makeEntry(2, 2));
    fresh.push(makeEntry(3, 3));
    EXPECT_EQ(saved(cq), saved(fresh));
}

TEST(ScoreboardSoA, BusySupersetSurvivesRestore)
{
    Scoreboard sb;
    sb.setPending(isa::intReg(3), 50, PendingKind::kLoad);
    sb.setPending(isa::intReg(7), 20, PendingKind::kNonLoad);
    EXPECT_FALSE(sb.quiescentBy(30));
    EXPECT_TRUE(sb.quiescentBy(50));
    EXPECT_FALSE(sb.ready(isa::intReg(3), 30));
    EXPECT_TRUE(sb.ready(isa::intReg(7), 30));

    serial::Writer w;
    sb.save(w);
    Scoreboard back;
    serial::Reader r(w.buffer());
    back.restore(r);
    ASSERT_TRUE(r.ok());

    // The packed busy superset is rebuilt from the ready times: the
    // restored scoreboard answers every query like the original.
    EXPECT_FALSE(back.ready(isa::intReg(3), 30));
    EXPECT_TRUE(back.ready(isa::intReg(3), 50));
    EXPECT_FALSE(back.quiescentBy(49));
    EXPECT_TRUE(back.quiescentBy(50));
    EXPECT_EQ(back.kindOf(isa::intReg(3)), PendingKind::kLoad);

    std::vector<unsigned> busy;
    back.forEachBusy([&](unsigned slot) { busy.push_back(slot); });
    EXPECT_EQ(busy.size(), 2u);
}

TEST(MachineState, CheckpointCopiesOnlyDirtySlotsButAllOfThem)
{
    const CoreConfig cfg;
    MachineState ms(cfg);

    // First checkpoint after construction: both masks are fully
    // dirty (reset() is conservative), so the files must now agree
    // everywhere.
    ms.regs.write(isa::intReg(1), 111);
    ms.regs.write(isa::intReg(2), 222);
    ms.checkpointRegsToRa();
    for (unsigned slot = 0; slot < kNumRegSlots; ++slot)
        ASSERT_EQ(ms.raRegs.read(slot), ms.regs.read(slot));
    EXPECT_FALSE(ms.regs.dirtyMask().any());
    EXPECT_FALSE(ms.raRegs.dirtyMask().any());

    // An episode scribbles over the shadow file; the architectural
    // file advances elsewhere. The next checkpoint must repair both
    // kinds of divergence — shadow-dirty and arch-dirty slots.
    ms.raRegs.write(isa::intReg(5), 0xdead);
    ms.regs.write(isa::intReg(2), 333);
    ms.checkpointRegsToRa();
    for (unsigned slot = 0; slot < kNumRegSlots; ++slot)
        ASSERT_EQ(ms.raRegs.read(slot), ms.regs.read(slot));
    EXPECT_EQ(ms.raRegs.read(isa::intReg(2)), 333);
    EXPECT_EQ(ms.raRegs.read(isa::intReg(5)),
              ms.regs.read(isa::intReg(5)));
}

TEST(MachineState, ConflictRetryIsASortedSet)
{
    const CoreConfig cfg;
    MachineState ms(cfg);
    EXPECT_FALSE(ms.conflictRetryContains(7));

    ms.conflictRetryInsert(9);
    ms.conflictRetryInsert(2);
    ms.conflictRetryInsert(7);
    ms.conflictRetryInsert(7); // duplicate: no-op
    EXPECT_TRUE(ms.conflictRetryContains(2));
    EXPECT_TRUE(ms.conflictRetryContains(7));
    EXPECT_TRUE(ms.conflictRetryContains(9));
    EXPECT_FALSE(ms.conflictRetryContains(3));
    const std::vector<InstIdx> want = {2, 7, 9};
    EXPECT_EQ(ms.conflictRetry(), want); // sorted, deduplicated

    ms.conflictRetryClear();
    EXPECT_FALSE(ms.conflictRetryContains(7));
    EXPECT_TRUE(ms.conflictRetry().empty());
}

TEST(MachineState, AFilePackedMasksTrackWritesAndRepair)
{
    const CoreConfig cfg;
    MachineState ms(cfg);
    ms.regs.write(isa::intReg(4), 44);

    ms.afile.writeExecuted(isa::intReg(4), 999, /*id=*/7,
                           /*ready_at=*/0, PendingKind::kNonLoad);
    ms.afile.markDeferred(isa::intReg(6), /*id=*/8);
    EXPECT_TRUE(ms.afile.valid(isa::intReg(4)));
    EXPECT_TRUE(ms.afile.speculative(isa::intReg(4)));
    EXPECT_FALSE(ms.afile.valid(isa::intReg(6)));
    EXPECT_EQ(ms.afile.specMask().count(), 2u);

    // Flush repair scans the packed masks: both touched registers
    // are restored from the architectural file in one pass.
    const unsigned repaired = ms.afile.repairFromArch(ms.regs);
    EXPECT_EQ(repaired, 2u);
    EXPECT_EQ(ms.afile.read(isa::intReg(4)), 44);
    EXPECT_TRUE(ms.afile.valid(isa::intReg(6)));
    EXPECT_FALSE(ms.afile.specMask().any());
}

} // namespace
