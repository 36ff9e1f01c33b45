/**
 * @file
 * Stage-unit tests: the B-pipe and the feedback path driven directly
 * against hand-built structures, with no TwoPassCpu in the loop. The
 * PipeContext seam exists exactly so these scenarios — flush
 * recoveries, merge-time ALAT conflicts, DynID-gated feedback — can
 * be set up surgically instead of coaxed out of whole programs.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "branch/predictor.hh"
#include "cpu/config.hh"
#include "cpu/core/observer.hh"
#include "cpu/frontend.hh"
#include "cpu/twopass/afile.hh"
#include "cpu/twopass/bpipe.hh"
#include "cpu/twopass/coupling_queue.hh"
#include "cpu/twopass/feedback.hh"
#include "cpu/twopass/pipe_context.hh"
#include "isa/builder.hh"
#include "memory/alat.hh"
#include "memory/hierarchy.hh"
#include "memory/sparse_memory.hh"
#include "memory/store_buffer.hh"

namespace
{

using namespace ff;
using namespace ff::cpu;
using namespace ff::isa;

/** Captures observer events for assertion. */
struct RecordingObserver : CoreObserver
{
    struct Flush
    {
        Cycle now;
        FlushKind kind;
        InstIdx target;
    };
    std::vector<Flush> flushes;

    void
    onFlush(Cycle now, FlushKind kind, InstIdx target) override
    {
        flushes.push_back({now, kind, target});
    }
};

/**
 * A tiny sequential program (every instruction its own issue group):
 *
 *   0: movi r1, 5
 *   1: movi r2, 7
 *   2: add  r3, r1, r2
 *   3: br target        (fallthrough 4, taken target 6)
 *   4: movi r3, 9
 *   5: halt
 *   6: movi r4, 11      <- "target"
 *   7: halt
 */
Program
stageProgram()
{
    ProgramBuilder b("stage");
    b.movi(intReg(1), 5);
    b.movi(intReg(2), 7);
    b.add(intReg(3), intReg(1), intReg(2));
    b.br("target");
    b.movi(intReg(3), 9);
    b.halt();
    b.label("target");
    b.movi(intReg(4), 11);
    b.halt();
    return b.finalize();
}

constexpr InstIdx kBranchIdx = 3;
constexpr InstIdx kBranchTarget = 6;
constexpr InstIdx kBranchFallthrough = 4;

/**
 * Every structure TwoPassCpu owns, stood up by hand and wrapped in a
 * PipeContext, exactly as the header promises a test can.
 */
struct StageFixture
{
    explicit StageFixture(const Program &p,
                          const CoreConfig &c = CoreConfig())
        : prog(p),
          cfg(c),
          mem(p.dataImage()),
          hier(cfg.mem),
          pred(branch::makePredictor(cfg.predictorKind,
                                     cfg.predictorEntries)),
          fe(prog, cfg, *pred, hier, memory::Initiator::kApipe),
          ms(cfg),
          sbuf(cfg.storeBufferSize),
          alat(cfg.alatCapacity),
          ctx{prog, cfg, fe, *pred, hier, mem, ms, sbuf, alat, stats},
          feedback(cfg, ms, stats),
          bpipe(ctx, feedback)
    {
    }

    const Program &prog;
    CoreConfig cfg;
    memory::SparseMemory mem;
    memory::Hierarchy hier;
    std::unique_ptr<branch::DirectionPredictor> pred;
    FrontEnd fe;
    MachineState ms;
    memory::StoreBuffer sbuf;
    memory::Alat alat;
    TwoPassStats stats;
    PipeContext ctx;
    FeedbackPath feedback;
    BPipe bpipe;

    // Shorthands into the machine-state block, so the test bodies
    // read like the structures were still stand-alone members.
    AFile &afile = ms.afile;
    RegFile &bfile = ms.regs;
    Scoreboard &bsb = ms.sb;
    CouplingQueue &cq = ms.cq;
};

CqEntry
preExecutedEntry(InstIdx idx, DynId id, Cycle ready_at = 0)
{
    CqEntry e;
    e.idx = idx;
    e.id = id;
    e.enqueuedAt = 0;
    e.status = CqStatus::kPreExecuted;
    e.predTrue = true;
    e.readyAt = ready_at;
    e.groupEnd = true;
    return e;
}

// --------------------------------------------------------------------
// B-DET misprediction flush (Sec. 3.6).
// --------------------------------------------------------------------

TEST(StageUnits, BDetFlushSquashesYoungerAndRepairsAfile)
{
    const Program p = stageProgram();
    StageFixture f(p);
    RecordingObserver obs;
    f.ms.observer = &obs;
    const Cycle now = 10;
    const DynId branch_id = 8;

    // Architectural truth the repair must restore.
    f.bfile.write(intReg(1), 111);
    f.bfile.write(intReg(2), 222);
    // r1 invalidated by a deferral, r2 speculatively overwritten.
    f.afile.markDeferred(intReg(1), 7);
    f.afile.writeExecuted(intReg(2), 999, branch_id, now,
                          PendingKind::kNone);
    // Speculative memory state straddling the branch id.
    f.sbuf.insert(5, 0x1000, 8, 0xAA);
    f.sbuf.insert(9, 0x1008, 8, 0xBB);
    f.alat.allocate(6, 0x2000, 8);
    f.alat.allocate(9, 0x2008, 8);
    // An in-flight feedback update younger than the branch.
    f.feedback.schedule(p.decoded(0), 9, now);
    ASSERT_EQ(f.feedback.size(), 1u);
    // A halted A-pipe the flush must revive.
    f.ms.aHalted = true;

    CqEntry branch = preExecutedEntry(kBranchIdx, branch_id);
    branch.isBranch = true;
    branch.fallthrough = kBranchFallthrough;
    f.bpipe.bDetFlush(branch, /*taken=*/true, now);

    // Wrong-path speculative state (id > 8) is gone; older survives.
    ASSERT_EQ(f.sbuf.size(), 1u);
    EXPECT_EQ(f.sbuf.entries().front().id, 5u);
    EXPECT_EQ(f.alat.liveEntries(), 1u);
    EXPECT_TRUE(f.alat.check(6));
    EXPECT_TRUE(f.feedback.empty());

    // The A-file matches the B-file again.
    EXPECT_TRUE(f.afile.valid(intReg(1)));
    EXPECT_FALSE(f.afile.speculative(intReg(1)));
    EXPECT_EQ(f.afile.read(intReg(1)), 111u);
    EXPECT_FALSE(f.afile.speculative(intReg(2)));
    EXPECT_EQ(f.afile.read(intReg(2)), 222u);
    EXPECT_EQ(f.stats.registersRepaired, 2u);

    // Fetch restarts at the taken target after the repair penalty.
    const Cycle resume =
        now + 1 + f.cfg.branchResolveDelay + f.cfg.bFlushRepairPenalty;
    EXPECT_TRUE(f.fe.redirecting(resume - 1));
    EXPECT_FALSE(f.fe.redirecting(resume));
    EXPECT_FALSE(f.ms.aHalted);

    ASSERT_EQ(obs.flushes.size(), 1u);
    EXPECT_EQ(obs.flushes[0].kind, FlushKind::kBDet);
    EXPECT_EQ(obs.flushes[0].target, kBranchTarget);
    EXPECT_EQ(obs.flushes[0].now, now);
}

TEST(StageUnits, BDetFlushNotTakenResumesAtFallthrough)
{
    const Program p = stageProgram();
    StageFixture f(p);
    RecordingObserver obs;
    f.ms.observer = &obs;

    CqEntry branch = preExecutedEntry(kBranchIdx, 4);
    branch.isBranch = true;
    branch.fallthrough = kBranchFallthrough;
    f.bpipe.bDetFlush(branch, /*taken=*/false, 20);

    ASSERT_EQ(obs.flushes.size(), 1u);
    EXPECT_EQ(obs.flushes[0].target, kBranchFallthrough);
}

// --------------------------------------------------------------------
// Store-conflict flush (Sec. 3.4).
// --------------------------------------------------------------------

TEST(StageUnits, ConflictFlushClearsEverythingAndMarksRetry)
{
    const Program p = stageProgram();
    StageFixture f(p);
    RecordingObserver obs;
    f.ms.observer = &obs;
    const Cycle now = 10;

    f.bfile.write(intReg(1), 321);
    f.afile.markDeferred(intReg(1), 2);
    f.cq.push(preExecutedEntry(0, 1));
    f.cq.push(preExecutedEntry(1, 2));
    f.cq.push(preExecutedEntry(2, 3));
    f.sbuf.insert(1, 0x1000, 8, 0xAA);
    f.alat.allocate(3, 0x2000, 8);
    f.feedback.schedule(p.decoded(1), 2, now);
    f.ms.aHalted = true;

    const CqEntry offender = f.cq.entry(2);
    f.bpipe.conflictFlush(offender, now);

    // A conflict flush is total: no speculative state survives.
    EXPECT_TRUE(f.cq.empty());
    EXPECT_TRUE(f.sbuf.empty());
    EXPECT_EQ(f.alat.liveEntries(), 0u);
    EXPECT_TRUE(f.feedback.empty());
    EXPECT_EQ(f.stats.registersRepaired, 1u);
    EXPECT_EQ(f.afile.read(intReg(1)), 321u);

    // The offending static load re-dispatches non-speculatively.
    EXPECT_TRUE(f.ms.conflictRetryContains(offender.idx));
    EXPECT_FALSE(f.ms.aHalted);

    // Refetch restarts at the head group's leader (idx 0 here).
    ASSERT_EQ(obs.flushes.size(), 1u);
    EXPECT_EQ(obs.flushes[0].kind, FlushKind::kConflict);
    EXPECT_EQ(obs.flushes[0].target, 0u);
}

TEST(StageUnits, StepDetectsMergeTimeAlatConflict)
{
    const Program p = stageProgram();
    StageFixture f(p);
    RecordingObserver obs;
    f.ms.observer = &obs;

    // A pre-executed load whose ALAT entry is gone (a conflicting
    // store intervened): the merge-time check must fire the flush.
    CqEntry load = preExecutedEntry(0, 1);
    load.isLoad = true;
    f.cq.push(load);

    RunResult res;
    const CycleClass cls = f.bpipe.step(/*now=*/5, res);

    EXPECT_EQ(cls, CycleClass::kFrontEndStall);
    EXPECT_EQ(f.stats.storeConflictFlushes, 1u);
    EXPECT_TRUE(f.cq.empty());
    EXPECT_TRUE(f.ms.conflictRetryContains(0));
    EXPECT_EQ(res.instsRetired, 0u);
    ASSERT_EQ(obs.flushes.size(), 1u);
    EXPECT_EQ(obs.flushes[0].kind, FlushKind::kConflict);
}

// --------------------------------------------------------------------
// Retire-window prescan classification.
// --------------------------------------------------------------------

TEST(StageUnits, PrescanClassifiesDanglingResults)
{
    const Program p = stageProgram();
    StageFixture f(p);
    const RetireWindow w{1, 1};

    // A pre-executed load whose miss has not returned: load stall.
    f.cq.push(preExecutedEntry(0, 1, /*ready_at=*/100));
    {
        // Mutating a queued entry is forbidden; rebuild instead.
        CouplingQueue &cq = f.cq;
        CqEntry e = cq.entry(0);
        cq.clear();
        e.isLoad = true;
        cq.push(e);
    }
    EXPECT_EQ(f.bpipe.prescanWindow(w, 5), CycleClass::kLoadStall);

    // The same dangling result from a multi-cycle non-load.
    {
        CqEntry e = f.cq.entry(0);
        f.cq.clear();
        e.isLoad = false;
        f.cq.push(e);
    }
    EXPECT_EQ(f.bpipe.prescanWindow(w, 5),
              CycleClass::kNonLoadDepStall);

    // Arrived (readyAt <= now): the window may retire.
    {
        CqEntry e = f.cq.entry(0);
        f.cq.clear();
        e.readyAt = 5;
        f.cq.push(e);
    }
    EXPECT_EQ(f.bpipe.prescanWindow(w, 5), CycleClass::kUnstalled);
}

TEST(StageUnits, PrescanClassifiesDeferredOperandStalls)
{
    const Program p = stageProgram();
    StageFixture f(p);
    const RetireWindow w{1, 1};

    // Deferred "add r3, r1, r2" blocked on r1, in-flight from a load.
    CqEntry add = preExecutedEntry(2, 1);
    add.status = CqStatus::kDeferred;
    f.cq.push(add);
    f.bsb.setPending(intReg(1), 100, PendingKind::kLoad);
    EXPECT_EQ(f.bpipe.prescanWindow(w, 5), CycleClass::kLoadStall);

    // Same producer, non-load kind: the other dependence class.
    f.bsb.setPending(intReg(1), 100, PendingKind::kNonLoad);
    EXPECT_EQ(f.bpipe.prescanWindow(w, 5),
              CycleClass::kNonLoadDepStall);

    // Producer completes: ready to retire.
    f.bsb.setPending(intReg(1), 5, PendingKind::kNonLoad);
    EXPECT_EQ(f.bpipe.prescanWindow(w, 5), CycleClass::kUnstalled);
}

TEST(StageUnits, StepDistinguishesApipeLagFromFetchStarvation)
{
    const Program p = stageProgram();
    StageFixture f(p);
    RunResult res;

    // Empty CQ and an empty (never-ticked) front end: fetch starved.
    EXPECT_EQ(f.bpipe.step(1, res), CycleClass::kFrontEndStall);

    // Fill the fetch queue (the first group rides a cold icache
    // miss); once the head is ready the A-pipe is the laggard.
    Cycle c = 0;
    for (; c < 1000 && !f.fe.headReady(c); ++c) {
        f.hier.tick(c);
        f.fe.tick(c);
    }
    ASSERT_TRUE(f.fe.headReady(c));
    EXPECT_EQ(f.bpipe.step(c, res), CycleClass::kApipeStall);
}

// --------------------------------------------------------------------
// FeedbackPath: the DynID gate, latency, and squash (Sec. 3.5).
// --------------------------------------------------------------------

TEST(StageUnits, FeedbackAppliesAfterLatencyWhenDynIdMatches)
{
    const Program p = stageProgram();
    StageFixture f(p);
    const Cycle now = 10;

    f.bfile.write(intReg(1), 42);
    f.afile.markDeferred(intReg(1), 5);
    f.feedback.schedule(p.decoded(0), 5, now); // movi r1: dest r1
    ASSERT_EQ(f.feedback.size(), 1u);

    // Not due yet at the schedule cycle (latency 1).
    f.feedback.apply(now);
    EXPECT_FALSE(f.afile.valid(intReg(1)));

    f.feedback.apply(now + f.cfg.feedbackLatency);
    EXPECT_TRUE(f.feedback.empty());
    EXPECT_TRUE(f.afile.valid(intReg(1)));
    EXPECT_EQ(f.afile.read(intReg(1)), 42u);
    EXPECT_EQ(f.stats.feedbackApplied, 1u);
    EXPECT_EQ(f.stats.feedbackDropped, 0u);
}

TEST(StageUnits, FeedbackStaleUpdateIsDroppedByDynIdGate)
{
    const Program p = stageProgram();
    StageFixture f(p);

    f.bfile.write(intReg(1), 42);
    // A younger instance (id 9) re-marked r1 after id 5 retired:
    // id 5's feedback must not revalidate the register.
    f.afile.markDeferred(intReg(1), 9);
    f.feedback.schedule(p.decoded(0), 5, 0);
    f.feedback.apply(100);

    EXPECT_FALSE(f.afile.valid(intReg(1)));
    EXPECT_EQ(f.stats.feedbackApplied, 0u);
    EXPECT_EQ(f.stats.feedbackDropped, 1u);
}

TEST(StageUnits, FeedbackDisabledSchedulesNothing)
{
    const Program p = stageProgram();
    CoreConfig cfg;
    cfg.feedbackEnabled = false;
    StageFixture f(p, cfg);

    f.feedback.schedule(p.decoded(0), 5, 0);
    EXPECT_TRUE(f.feedback.empty());
}

TEST(StageUnits, FeedbackSquashDropsOnlyYoungerUpdates)
{
    const Program p = stageProgram();
    StageFixture f(p);

    f.feedback.schedule(p.decoded(0), 5, 0); // r1, id 5
    f.feedback.schedule(p.decoded(1), 8, 0); // r2, id 8
    ASSERT_EQ(f.feedback.size(), 2u);

    f.feedback.squashYoungerThan(5);
    EXPECT_EQ(f.feedback.size(), 1u);

    f.feedback.clear();
    EXPECT_TRUE(f.feedback.empty());
}

} // namespace
