/** @file Unit tests for the fetch/predict front end. */

#include <gtest/gtest.h>

#include "branch/gshare.hh"
#include "common/serialize.hh"
#include "compiler/scheduler.hh"
#include "cpu/frontend.hh"
#include "isa/builder.hh"

namespace
{

using namespace ff;
using namespace ff::cpu;
using namespace ff::isa;

/** A small looped program: 2 iterations, then halt. */
Program
loopProgram()
{
    ProgramBuilder b("fe");
    b.movi(intReg(1), 0);
    b.label("loop");
    b.addi(intReg(1), intReg(1), 1);
    b.cmpi(CmpCond::kLt, predReg(1), predReg(2), intReg(1), 2);
    b.br("loop");
    b.pred(predReg(1));
    b.halt();
    return b.finalize();
}

struct Fixture
{
    Program prog;
    CoreConfig cfg;
    branch::GsharePredictor pred{1024};
    memory::Hierarchy hier{memory::MemoryConfig{}};

    explicit Fixture(Program p = loopProgram()) : prog(std::move(p))
    {
        // Make the instruction side instant so timing tests focus on
        // the pipeline depth, not cold I-cache misses.
        warmIcache();
    }

    void
    warmIcache()
    {
        for (InstIdx i = 0; i < prog.size(); ++i)
            hier.l1i().insert(Program::instAddr(i), false);
        for (Addr a = 0; a < 4096; a += 64)
            hier.l1i().insert(Program::kTextBase + a, false);
    }
};

TEST(FrontEnd, GroupArrivesAfterPipelineDepth)
{
    Fixture f;
    FrontEnd fe(f.prog, f.cfg, f.pred, f.hier,
                memory::Initiator::kBaseline);
    fe.tick(0);
    EXPECT_FALSE(fe.headReady(f.cfg.frontEndDepth - 1));
    EXPECT_TRUE(fe.headReady(f.cfg.frontEndDepth));
    EXPECT_EQ(fe.head().leader, 0u);
}

TEST(FrontEnd, FetchesOneGroupPerCycle)
{
    Fixture f;
    FrontEnd fe(f.prog, f.cfg, f.pred, f.hier,
                memory::Initiator::kBaseline);
    fe.tick(0);
    fe.tick(1);
    const Cycle ready = f.cfg.frontEndDepth + 1;
    ASSERT_TRUE(fe.headReady(ready));
    EXPECT_EQ(fe.head().leader, 0u);
    fe.pop();
    ASSERT_TRUE(fe.headReady(ready));
    EXPECT_EQ(fe.head().leader, 1u); // the movi group, then the loop
}

TEST(FrontEnd, QueueCapacityThrottlesFetch)
{
    Fixture f;
    f.cfg.fetchQueueGroups = 2;
    FrontEnd fe(f.prog, f.cfg, f.pred, f.hier,
                memory::Initiator::kBaseline);
    for (Cycle c = 0; c < 10; ++c)
        fe.tick(c);
    // Only two groups may be buffered.
    std::size_t n = 0;
    while (!fe.empty()) {
        fe.pop();
        ++n;
    }
    EXPECT_EQ(n, 2u);
}

TEST(FrontEnd, QueueWrapsPastCapacity)
{
    // 30 one-slot groups through a 3-group queue: fetch runs ahead of
    // a consumer that pops every other cycle, so the queue stays full
    // and its ring's head passes the capacity many times.
    ProgramBuilder b("line");
    for (int i = 0; i < 30; ++i)
        b.addi(intReg(1), intReg(1), 1);
    b.halt();
    Fixture f(b.finalize());
    f.cfg.fetchQueueGroups = 3;
    FrontEnd fe(f.prog, f.cfg, f.pred, f.hier,
                memory::Initiator::kBaseline);
    InstIdx expect = 0;
    for (Cycle c = 0; c < 200 && expect < f.prog.size(); ++c) {
        fe.tick(c);
        if (c % 2 == 1 && fe.headReady(c)) {
            EXPECT_EQ(fe.head().leader, expect);
            fe.pop();
            ++expect;
        }
    }
    EXPECT_EQ(expect, f.prog.size());
    EXPECT_TRUE(fe.empty());
}

TEST(FrontEnd, BranchGroupCarriesPredictionMetadata)
{
    Fixture f;
    FrontEnd fe(f.prog, f.cfg, f.pred, f.hier,
                memory::Initiator::kBaseline);
    // Fetch groups until the branch group (leader 1..3, branch at 3).
    for (Cycle c = 0; c < 6; ++c)
        fe.tick(c);
    bool saw_branch_group = false;
    while (!fe.empty()) {
        const FetchedGroup &g = fe.head();
        if (g.hasBranch) {
            saw_branch_group = true;
            const InstIdx expected_next =
                g.predictedTaken
                    ? static_cast<InstIdx>(
                          f.prog.inst(g.end - 1).imm)
                    : g.end;
            EXPECT_EQ(g.predictedNext, expected_next);
        }
        fe.pop();
    }
    EXPECT_TRUE(saw_branch_group);
}

TEST(FrontEnd, StopsAtHalt)
{
    Fixture f;
    FrontEnd fe(f.prog, f.cfg, f.pred, f.hier,
                memory::Initiator::kBaseline);
    // Weakly-not-taken predictor: the loop branch predicts
    // not-taken, so fetch falls through to the halt and stops.
    for (Cycle c = 0; c < 20; ++c)
        fe.tick(c);
    EXPECT_TRUE(fe.fetchStopped());
}

TEST(FrontEnd, RedirectSquashesAndResumes)
{
    Fixture f;
    FrontEnd fe(f.prog, f.cfg, f.pred, f.hier,
                memory::Initiator::kBaseline);
    for (Cycle c = 0; c < 5; ++c)
        fe.tick(c);
    EXPECT_FALSE(fe.empty());
    fe.redirect(1, 10);
    EXPECT_TRUE(fe.empty());
    EXPECT_TRUE(fe.redirecting(9));
    fe.tick(9); // suspended
    EXPECT_TRUE(fe.empty());
    fe.tick(10); // resumes
    ASSERT_FALSE(fe.empty());
    EXPECT_EQ(fe.head().leader, 1u);
    EXPECT_EQ(fe.head().readyAt, 10 + f.cfg.frontEndDepth);
    EXPECT_EQ(fe.stats().redirects, 1u);
}

TEST(FrontEnd, RedirectReawakensAfterHalt)
{
    Fixture f;
    FrontEnd fe(f.prog, f.cfg, f.pred, f.hier,
                memory::Initiator::kBaseline);
    for (Cycle c = 0; c < 20; ++c)
        fe.tick(c);
    ASSERT_TRUE(fe.fetchStopped());
    fe.redirect(1, 21);
    EXPECT_FALSE(fe.fetchStopped());
    fe.tick(21);
    // Queue was cleared by the redirect; fresh fetch from 1.
    bool found = false;
    while (!fe.empty()) {
        if (fe.head().leader == 1)
            found = true;
        fe.pop();
    }
    EXPECT_TRUE(found);
}

TEST(FrontEnd, ColdIcacheDelaysReadiness)
{
    Fixture f;
    // Rebuild the hierarchy cold (the fixture warmed it).
    f.hier.reset();
    FrontEnd fe(f.prog, f.cfg, f.pred, f.hier,
                memory::Initiator::kBaseline);
    fe.tick(0);
    ASSERT_FALSE(fe.empty());
    // A memory-latency fetch: depth + (145 - L1I latency).
    EXPECT_EQ(fe.head().readyAt,
              f.cfg.frontEndDepth + 145 - f.cfg.mem.l1i.latency);
    EXPECT_GT(fe.stats().icacheMissCycles, 0u);
}

TEST(FrontEnd, ReusedSlotSavesDefaultPrediction)
{
    // A branch group (leader 1, so its token is not the default) and
    // then one-slot groups through a two-group queue: the ring has two
    // slots, so the fourth group lands in the branch's old slot.
    ProgramBuilder b("reuse");
    b.movi(intReg(1), 0);
    b.label("top");
    b.br("top");
    b.pred(predReg(1)); // never set: predicted and resolved not taken
    for (int i = 0; i < 6; ++i)
        b.addi(intReg(2), intReg(2), 1);
    b.halt();
    Fixture f(b.finalize());
    f.cfg.fetchQueueGroups = 2;
    FrontEnd fe(f.prog, f.cfg, f.pred, f.hier,
                memory::Initiator::kBaseline);
    fe.tick(0);
    fe.tick(1);
    fe.pop();
    ASSERT_TRUE(fe.head().hasBranch);
    ASSERT_NE(fe.head().prediction.index, 0u);
    fe.pop();
    fe.tick(2);
    fe.tick(3);

    serial::Writer w;
    fe.save(w);
    serial::Reader r(w.buffer());
    ASSERT_EQ(r.u64(), 2u);
    for (InstIdx leader = 2; leader < 4; ++leader) {
        EXPECT_EQ(r.u32(), leader);
        EXPECT_EQ(r.u32(), leader + 1); // end
        r.u64();                        // readyAt
        EXPECT_FALSE(r.boolean()) << "hasBranch of group " << leader;
        EXPECT_FALSE(r.boolean()) << "predictedTaken of group " << leader;
        EXPECT_EQ(r.u32(), leader + 1); // predictedNext
        // The token's encoding, member by member, must be the default.
        EXPECT_FALSE(r.boolean()) << "taken of group " << leader;
        EXPECT_EQ(r.u32(), 0u) << "index of group " << leader;
        EXPECT_EQ(r.u64(), 0u) << "historyBefore of group " << leader;
        EXPECT_EQ(r.u32(), 0u) << "index2 of group " << leader;
        EXPECT_EQ(r.u32(), 0u) << "chooserIndex of group " << leader;
        EXPECT_FALSE(r.boolean()) << "component1Taken of group " << leader;
        EXPECT_FALSE(r.boolean()) << "component2Taken of group " << leader;
        EXPECT_FALSE(r.boolean()) << "usedComponent2 of group " << leader;
    }
    EXPECT_TRUE(r.ok());
}

TEST(FrontEnd, NextEventIsFetchResumeOrHeadReady)
{
    Fixture f;
    f.cfg.fetchQueueGroups = 2;
    FrontEnd fe(f.prog, f.cfg, f.pred, f.hier,
                memory::Initiator::kBaseline);
    EXPECT_EQ(fe.nextEvent(0), 0u); // would fetch
    fe.tick(0);
    EXPECT_EQ(fe.nextEvent(1), 1u); // room for one more group
    fe.tick(1);
    // Full queue: quiet until the head reaches the issue point, then
    // only a pop or a redirect changes anything.
    const Cycle ready = f.cfg.frontEndDepth;
    EXPECT_EQ(fe.nextEvent(2), ready);
    EXPECT_EQ(fe.nextEvent(ready), kNeverCycle);
    fe.pop();
    EXPECT_EQ(fe.nextEvent(ready), ready); // room again
    // Redirecting: quiet until the resume cycle.
    fe.redirect(1, 20);
    EXPECT_EQ(fe.nextEvent(ready), 20u);
    EXPECT_EQ(fe.nextEvent(20), 20u);
}

} // namespace
