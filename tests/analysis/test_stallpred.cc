/**
 * @file
 * Unit tests for the static stall predictor: the analytical model of
 * the baseline core's whole-group issue stalls, with bubbles
 * attributed to the producer that pinned the group.
 */

#include <gtest/gtest.h>

#include "analysis/stallpred.hh"
#include "isa/assembler.hh"

namespace ff
{
namespace
{

using analysis::Cfg;
using analysis::PredictedBlock;
using analysis::StallPredictor;
using analysis::StallPrediction;

const PredictedBlock &
blockContaining(const StallPrediction &p, InstIdx i)
{
    for (const PredictedBlock &b : p.blocks) {
        if (i >= b.begin && i < b.end)
            return b;
    }
    ADD_FAILURE() << "no block contains inst " << i;
    return p.blocks.front();
}

TEST(StallPred, IndependentGroupsRunBackToBack)
{
    const isa::Program prog =
        isa::assembleOrDie("movi r1 = 1 ;;\n"
                           "movi r2 = 2 ;;\n"
                           "movi r3 = 3 ;;\n"
                           "halt\n",
                           "sp");
    const Cfg cfg(prog);
    const StallPredictor sp(cfg);
    const StallPrediction p = sp.predict(3.0);
    EXPECT_DOUBLE_EQ(p.totalLoadStall(), 0.0);
    const PredictedBlock &b = p.blocks.front();
    EXPECT_DOUBLE_EQ(b.cycles, static_cast<double>(b.groups));
}

TEST(StallPred, LoadUseBubbleMatchesTheLatency)
{
    // ld8 issues in its own group; the consumer's group waits until
    // the value is back: latency L costs L - 1 bubbles.
    const isa::Program prog =
        isa::assembleOrDie("movi r1 = 0x1000 ;;\n"
                           "ld8 r2 = [r1] ;;\n"
                           "add r3 = r2, 1 ;;\n"
                           "halt\n",
                           "sp");
    const Cfg cfg(prog);
    const StallPredictor sp(cfg);
    for (const double lat : {1.0, 3.0, 12.0}) {
        const StallPrediction p = sp.predict(lat);
        const PredictedBlock &b = blockContaining(p, 2);
        EXPECT_DOUBLE_EQ(b.loadStall, lat - 1.0) << "lat " << lat;
        EXPECT_DOUBLE_EQ(p.loadStallByInst[1], lat - 1.0)
            << "lat " << lat;
        EXPECT_DOUBLE_EQ(b.otherStall, 0.0);
    }
}

TEST(StallPred, IndependentWorkHidesTheLoadLatency)
{
    // Four issue slots of unrelated work between the load's group and
    // its use cover a 4-cycle load completely.
    const isa::Program prog =
        isa::assembleOrDie("movi r1 = 0x1000 ;;\n"
                           "ld8 r2 = [r1]\n"
                           "movi r4 = 4 ;;\n"
                           "movi r5 = 5 ;;\n"
                           "movi r6 = 6 ;;\n"
                           "movi r7 = 7 ;;\n"
                           "add r3 = r2, 1 ;;\n"
                           "halt\n",
                           "sp");
    const Cfg cfg(prog);
    const StallPredictor sp(cfg);
    EXPECT_DOUBLE_EQ(sp.predict(4.0).totalLoadStall(), 0.0);
    // A longer load still leaks the uncovered remainder.
    EXPECT_DOUBLE_EQ(sp.predict(6.0).totalLoadStall(), 2.0);
}

TEST(StallPred, AttributionPicksTheGatingLoad)
{
    // Two loads feed one consumer; the second one (same latency,
    // issued later) is the gate.
    const isa::Program prog =
        isa::assembleOrDie("movi r1 = 0x1000 ;;\n"
                           "ld8 r2 = [r1] ;;\n"
                           "ld8 r3 = [r1+8] ;;\n"
                           "add r4 = r2, r3 ;;\n"
                           "halt\n",
                           "sp");
    const Cfg cfg(prog);
    const StallPredictor sp(cfg);
    const StallPrediction p = sp.predict(5.0);
    EXPECT_DOUBLE_EQ(p.loadStallByInst[1], 0.0);
    EXPECT_GT(p.loadStallByInst[2], 0.0);
}

TEST(StallPred, NonLoadLatencyIsNotLoadStall)
{
    // A multi-cycle FP producer stalls its consumer, but those
    // bubbles are attributed to otherStall.
    const isa::Program prog =
        isa::assembleOrDie("itof f1 = r1 ;;\n"
                           "fmul f2 = f1, f1 ;;\n"
                           "fadd f3 = f2, f1 ;;\n"
                           "halt\n",
                           "sp");
    const Cfg cfg(prog);
    const StallPredictor sp(cfg);
    const StallPrediction p = sp.predict(3.0);
    EXPECT_DOUBLE_EQ(p.totalLoadStall(), 0.0);
    if (prog.inst(1).execLatency() > 1) {
        EXPECT_GT(blockContaining(p, 2).otherStall, 0.0);
    }
}

TEST(StallPred, PerBlockCostsAreIndependent)
{
    const isa::Program prog =
        isa::assembleOrDie("movi r1 = 0x1000 ;;\n"
                           "loop:\n"
                           "ld8 r2 = [r1] ;;\n"
                           "add r3 = r2, 1 ;;\n"
                           "cmp.lt p1, p2 = r3, 100 ;;\n"
                           "(p1) br loop\n"
                           "halt\n",
                           "sp");
    const Cfg cfg(prog);
    const StallPredictor sp(cfg);
    const StallPrediction p = sp.predict(3.0);
    // The loop body block carries the load-use bubble each iteration.
    const PredictedBlock &body = blockContaining(p, 1);
    EXPECT_DOUBLE_EQ(body.loadStall, 2.0);
    EXPECT_GE(body.cycles, static_cast<double>(body.groups));
}

} // namespace
} // namespace ff
