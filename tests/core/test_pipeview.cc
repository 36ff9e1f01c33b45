/**
 * @file
 * PipeViewObserver and ffpipe container semantics: the event stream
 * an observer records, the run-length cycle-class encoding, the event
 * cap, the lifetime reconstruction (FIFO retire resolution and the
 * two flush semantics), the binary round trip, and the rejection of
 * truncated/corrupt containers.
 */

#include <gtest/gtest.h>

#include <string>

#include "cpu/core/pipeview_observer.hh"
#include "sim/harness.hh"
#include "sim/pipe_trace.hh"
#include "workloads/workload.hh"

namespace
{

using namespace ff;
using cpu::PipeEvent;
using cpu::PipeEventKind;
using cpu::PipeViewObserver;

// ---- observer recording semantics ----------------------------------

TEST(PipeViewObserver, RecordsHooksInFiringOrder)
{
    PipeViewObserver obs;
    obs.onDispatch(5, 2, 1);
    obs.onDefer(5, 2, 1, cpu::DeferReason::kOperandInvalid);
    obs.onReplay(9, 2, 1);
    obs.onFeedbackApply(12, 1, 3);
    obs.onGroupRetire(10, 2, 2);
    obs.onFlush(11, cpu::FlushKind::kConflict, 0);

    ASSERT_EQ(obs.events().size(), 6u);
    EXPECT_EQ(obs.events()[0].kind, PipeEventKind::kDispatch);
    EXPECT_EQ(obs.events()[0].cycle, 5u);
    EXPECT_EQ(obs.events()[0].id, 1u);
    EXPECT_EQ(obs.events()[0].idx, 2u);
    EXPECT_EQ(obs.events()[1].kind, PipeEventKind::kDefer);
    EXPECT_EQ(obs.events()[1].a,
              static_cast<std::uint8_t>(cpu::DeferReason::kOperandInvalid));
    EXPECT_EQ(obs.events()[2].kind, PipeEventKind::kReplay);
    EXPECT_EQ(obs.events()[3].kind, PipeEventKind::kFeedback);
    EXPECT_EQ(obs.events()[3].b, 3u);
    EXPECT_EQ(obs.events()[4].kind, PipeEventKind::kRetire);
    EXPECT_EQ(obs.events()[4].b, 2u);
    EXPECT_EQ(obs.events()[5].kind, PipeEventKind::kFlush);
    EXPECT_EQ(obs.events()[5].a,
              static_cast<std::uint8_t>(cpu::FlushKind::kConflict));
    EXPECT_EQ(obs.dropped(), 0u);
}

TEST(PipeViewObserver, CycleClassesAreRunLengthEncoded)
{
    PipeViewObserver obs;
    obs.onCycle(0, cpu::CycleClass::kUnstalled);
    obs.onCycle(1, cpu::CycleClass::kUnstalled);
    obs.onCycle(2, cpu::CycleClass::kLoadStall);
    obs.onCycle(3, cpu::CycleClass::kLoadStall);
    obs.onCycle(4, cpu::CycleClass::kUnstalled);

    ASSERT_EQ(obs.events().size(), 3u);
    EXPECT_EQ(obs.events()[0].cycle, 0u);
    EXPECT_EQ(obs.events()[1].cycle, 2u);
    EXPECT_EQ(obs.events()[1].a,
              static_cast<std::uint8_t>(cpu::CycleClass::kLoadStall));
    EXPECT_EQ(obs.events()[2].cycle, 4u);
}

TEST(PipeViewObserver, CapsEventsAndCountsDrops)
{
    PipeViewObserver obs(/*max_events=*/3);
    for (unsigned i = 0; i < 10; ++i)
        obs.onDispatch(i, 0, i + 1);
    EXPECT_EQ(obs.events().size(), 3u);
    EXPECT_EQ(obs.dropped(), 7u);
}

// ---- lifetime reconstruction ---------------------------------------

PipeEvent
ev(PipeEventKind kind, Cycle cycle, DynId id = 0, InstIdx idx = 0,
   std::uint8_t a = 0, std::uint16_t b = 0)
{
    PipeEvent e;
    e.kind = kind;
    e.cycle = cycle;
    e.id = id;
    e.idx = idx;
    e.a = a;
    e.b = b;
    return e;
}

TEST(PipeLifetimes, GroupRetireResolvesFifoInFlight)
{
    // Two instructions dispatched, then one 2-slot group retire.
    const std::vector<PipeEvent> events = {
        ev(PipeEventKind::kDispatch, 1, 1, 0),
        ev(PipeEventKind::kDispatch, 1, 2, 1),
        ev(PipeEventKind::kRetire, 4, 0, 0, 0, 2),
    };
    const auto lives = sim::buildPipeLifetimes(events);
    ASSERT_EQ(lives.size(), 2u);
    EXPECT_EQ(lives[0].id, 1u);
    EXPECT_EQ(lives[0].dispatch, 1u);
    EXPECT_EQ(lives[0].retire, 4u);
    EXPECT_EQ(lives[0].squash, kNeverCycle);
    EXPECT_FALSE(lives[0].deferred);
    EXPECT_EQ(lives[1].retire, 4u);
}

TEST(PipeLifetimes, DeferReplayFeedbackAttachToTheirInstruction)
{
    const std::vector<PipeEvent> events = {
        ev(PipeEventKind::kDispatch, 1, 1, 0),
        ev(PipeEventKind::kDefer, 1, 1, 0,
           static_cast<std::uint8_t>(cpu::DeferReason::kOperandInvalid)),
        ev(PipeEventKind::kReplay, 7, 1, 0),
        ev(PipeEventKind::kRetire, 8, 0, 0, 0, 1),
        ev(PipeEventKind::kFeedback, 10, 1, 0, 0, 4),
    };
    const auto lives = sim::buildPipeLifetimes(events);
    ASSERT_EQ(lives.size(), 1u);
    EXPECT_TRUE(lives[0].deferred);
    EXPECT_EQ(lives[0].defer, cpu::DeferReason::kOperandInvalid);
    EXPECT_EQ(lives[0].replay, 7u);
    EXPECT_EQ(lives[0].retire, 8u);
    // Feedback may land after retirement; the first apply sticks.
    EXPECT_EQ(lives[0].feedback, 10u);
}

TEST(PipeLifetimes, ConflictFlushSquashesEverythingInFlight)
{
    const std::vector<PipeEvent> events = {
        ev(PipeEventKind::kDispatch, 1, 1, 0),
        ev(PipeEventKind::kDispatch, 2, 2, 1),
        ev(PipeEventKind::kFlush, 5, 0, 0,
           static_cast<std::uint8_t>(cpu::FlushKind::kConflict)),
        ev(PipeEventKind::kDispatch, 6, 3, 0),
        ev(PipeEventKind::kRetire, 9, 0, 0, 0, 1),
    };
    const auto lives = sim::buildPipeLifetimes(events);
    ASSERT_EQ(lives.size(), 3u);
    EXPECT_EQ(lives[0].squash, 5u);
    EXPECT_EQ(lives[0].retire, kNeverCycle);
    EXPECT_EQ(lives[1].squash, 5u);
    // The re-dispatched instruction after the flush retires normally.
    EXPECT_EQ(lives[2].squash, kNeverCycle);
    EXPECT_EQ(lives[2].retire, 9u);
}

TEST(PipeLifetimes, BdetFlushSquashesOnlyPastTheRetiredPrefix)
{
    // bDet recovery fires onFlush before the same-cycle retire of the
    // applied pre-branch prefix: the 2 oldest retire, the rest squash.
    const std::vector<PipeEvent> events = {
        ev(PipeEventKind::kDispatch, 1, 1, 0),
        ev(PipeEventKind::kDispatch, 1, 2, 1),
        ev(PipeEventKind::kDispatch, 2, 3, 2),
        ev(PipeEventKind::kFlush, 6, 0, 0,
           static_cast<std::uint8_t>(cpu::FlushKind::kBDet)),
        ev(PipeEventKind::kRetire, 6, 0, 0, 0, 2),
    };
    const auto lives = sim::buildPipeLifetimes(events);
    ASSERT_EQ(lives.size(), 3u);
    EXPECT_EQ(lives[0].retire, 6u);
    EXPECT_EQ(lives[0].squash, kNeverCycle);
    EXPECT_EQ(lives[1].retire, 6u);
    EXPECT_EQ(lives[2].retire, kNeverCycle);
    EXPECT_EQ(lives[2].squash, 6u);
}

TEST(PipeLifetimes, ToleratesRetiresWithNothingInFlight)
{
    // Baseline/run-ahead models emit only cycle-class and retire
    // events; the builder must not invent lifetimes for them.
    const std::vector<PipeEvent> events = {
        ev(PipeEventKind::kCycleClass, 0),
        ev(PipeEventKind::kRetire, 3, 0, 0, 0, 4),
        ev(PipeEventKind::kRetire, 4, 0, 4, 0, 4),
    };
    EXPECT_TRUE(sim::buildPipeLifetimes(events).empty());
}

// ---- container round trip and rejection ----------------------------

sim::PipeTrace
sampleTrace()
{
    sim::PipeTrace t;
    t.kind = sim::CpuKind::kTwoPass;
    t.programHash = 0x1122334455667788ULL;
    t.configHash = 0x99aabbccddeeff00ULL;
    t.programName = "unit.s";
    t.cycles = 42;
    t.dropped = 7;
    t.text.push_back({0, 3, "ld8 r1, [r2]"});
    t.text.push_back({1, -1, "add r3, r1, r4"});
    t.events.push_back(
        ev(PipeEventKind::kDispatch, 1, 1, 0));
    t.events.push_back(
        ev(PipeEventKind::kDefer, 1, 1, 0,
           static_cast<std::uint8_t>(cpu::DeferReason::kOperandInvalid)));
    t.events.push_back(ev(PipeEventKind::kRetire, 9, 0, 0, 0, 1));
    t.engine.names = {"job", "cache-hit"};
    t.engine.lanes = {"main", "worker-0"};
    t.engine.spans.push_back({0, 1, 100, 250, false});
    t.engine.spans.push_back({1, 0, 400, 0, true});
    return t;
}

TEST(PipeTraceFormat, RoundTripsAllSections)
{
    const sim::PipeTrace t = sampleTrace();
    const std::vector<std::uint8_t> bytes = sim::encodePipeTrace(t);

    sim::PipeTrace back;
    ASSERT_TRUE(sim::decodePipeTrace(bytes, back));
    EXPECT_EQ(back.kind, t.kind);
    EXPECT_EQ(back.programHash, t.programHash);
    EXPECT_EQ(back.configHash, t.configHash);
    EXPECT_EQ(back.programName, t.programName);
    EXPECT_EQ(back.cycles, t.cycles);
    EXPECT_EQ(back.dropped, t.dropped);

    ASSERT_EQ(back.text.size(), t.text.size());
    EXPECT_EQ(back.text[0].idx, 0u);
    EXPECT_EQ(back.text[0].srcLine, 3);
    EXPECT_EQ(back.text[0].text, "ld8 r1, [r2]");
    EXPECT_EQ(back.text[1].srcLine, -1);

    ASSERT_EQ(back.events.size(), t.events.size());
    for (std::size_t i = 0; i < t.events.size(); ++i) {
        EXPECT_EQ(back.events[i].cycle, t.events[i].cycle) << i;
        EXPECT_EQ(back.events[i].id, t.events[i].id) << i;
        EXPECT_EQ(back.events[i].idx, t.events[i].idx) << i;
        EXPECT_EQ(back.events[i].kind, t.events[i].kind) << i;
        EXPECT_EQ(back.events[i].a, t.events[i].a) << i;
        EXPECT_EQ(back.events[i].b, t.events[i].b) << i;
    }

    ASSERT_EQ(back.engine.names, t.engine.names);
    ASSERT_EQ(back.engine.lanes, t.engine.lanes);
    ASSERT_EQ(back.engine.spans.size(), t.engine.spans.size());
    EXPECT_EQ(back.engine.spans[0].startUs, 100u);
    EXPECT_EQ(back.engine.spans[0].durUs, 250u);
    EXPECT_FALSE(back.engine.spans[0].instant);
    EXPECT_TRUE(back.engine.spans[1].instant);
}

TEST(PipeTraceFormat, RejectsEveryTruncatedPrefix)
{
    const std::vector<std::uint8_t> bytes =
        sim::encodePipeTrace(sampleTrace());
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() + n);
        sim::PipeTrace out;
        EXPECT_FALSE(sim::decodePipeTrace(prefix, out))
            << "accepted a " << n << "-byte prefix of "
            << bytes.size();
    }
}

TEST(PipeTraceFormat, RejectsBadMagicVersionAndEnums)
{
    const std::vector<std::uint8_t> bytes =
        sim::encodePipeTrace(sampleTrace());
    sim::PipeTrace out;

    std::vector<std::uint8_t> bad = bytes;
    bad[0] ^= 0xff; // magic
    EXPECT_FALSE(sim::decodePipeTrace(bad, out));

    bad = bytes;
    bad[4] ^= 0xff; // version
    EXPECT_FALSE(sim::decodePipeTrace(bad, out));

    bad = bytes;
    bad[8] = 0xee; // CpuKind out of range
    EXPECT_FALSE(sim::decodePipeTrace(bad, out));

    // Trailing garbage makes atEnd() fail.
    bad = bytes;
    bad.push_back(0);
    EXPECT_FALSE(sim::decodePipeTrace(bad, out));

    // An enum payload past its enum fails the whole decode, while the
    // last value of each enum still decodes.
    const struct
    {
        PipeEventKind kind;
        std::uint8_t bad;
        unsigned count;
    } payloads[] = {
        {PipeEventKind::kDefer, 200, cpu::kNumDeferReasons},
        {PipeEventKind::kFlush, 5, cpu::kNumFlushKinds},
        {PipeEventKind::kCycleClass, 99, cpu::kNumCycleClasses},
    };
    for (const auto &p : payloads) {
        sim::PipeTrace t = sampleTrace();
        t.events.push_back(ev(p.kind, 10, 0, 0, p.bad));
        EXPECT_FALSE(sim::decodePipeTrace(sim::encodePipeTrace(t), out))
            << cpu::pipeEventKindName(p.kind);
        t.events.back().a = static_cast<std::uint8_t>(p.count - 1);
        EXPECT_TRUE(sim::decodePipeTrace(sim::encodePipeTrace(t), out))
            << cpu::pipeEventKindName(p.kind);
    }
}

/** The name a renderer prints for an event's enum payload, or
 *  nullptr for kinds whose @c a carries none. */
const char *
payloadName(const PipeEvent &e)
{
    switch (e.kind) {
      case PipeEventKind::kDefer:
        return cpu::deferReasonName(static_cast<cpu::DeferReason>(e.a));
      case PipeEventKind::kFlush:
        return cpu::flushKindName(static_cast<cpu::FlushKind>(e.a));
      case PipeEventKind::kCycleClass:
        return cpu::cycleClassName(static_cast<cpu::CycleClass>(e.a));
      default:
        return nullptr;
    }
}

/** True when every enum and index payload of @p t names something:
 *  no renderer falls back to "?" or indexes past a table. */
bool
payloadsInRange(const sim::PipeTrace &t)
{
    if (std::string(cpu::cpuKindName(t.kind)) == "?")
        return false;
    for (const PipeEvent &e : t.events) {
        if (std::string(cpu::pipeEventKindName(e.kind)) == "?")
            return false;
        const char *name = payloadName(e);
        if (name != nullptr && std::string(name) == "?")
            return false;
    }
    for (const engine::TraceSpan &s : t.engine.spans) {
        if (s.name >= t.engine.names.size() ||
            s.lane >= t.engine.lanes.size()) {
            return false;
        }
    }
    return true;
}

TEST(PipeTraceFormat, SingleByteMutantsFailOrDecodeInRange)
{
    // A real two-pass trace next to the hand-built one: its event
    // section carries every payload the observer emits on mcf.
    const workloads::Workload w = workloads::buildWorkload("181.mcf", 3);
    const cpu::CoreConfig cfg = sim::table1Config();
    sim::MetricsOptions mopt;
    mopt.pipeview = true;
    mopt.pipeviewMaxEvents = 64;
    const sim::SimOutcome run =
        sim::simulate(w.program, sim::CpuKind::kTwoPass, cfg,
                      sim::kDefaultMaxCycles, mopt);
    ASSERT_NE(run.metrics, nullptr);
    const sim::PipeTrace mcf = sim::buildPipeTrace(
        w.program, cfg, sim::CpuKind::kTwoPass, run.run.cycles,
        run.metrics->pipeEvents, run.metrics->pipeDropped, "181.mcf");
    ASSERT_EQ(mcf.events.size(), 64u);

    // Flip the low bit, the high bit and every bit of each byte in
    // turn. A mutant must be rejected, or decode to payloads that all
    // name something and render without fault (the sanitizer build
    // runs this test too).
    for (const sim::PipeTrace &t : {sampleTrace(), mcf}) {
        const std::vector<std::uint8_t> bytes = sim::encodePipeTrace(t);
        std::size_t decoded = 0;
        for (std::size_t i = 0; i < bytes.size(); ++i) {
            for (const unsigned mask : {0x01u, 0x80u, 0xffu}) {
                std::vector<std::uint8_t> bad = bytes;
                bad[i] ^= static_cast<std::uint8_t>(mask);
                sim::PipeTrace out;
                if (!sim::decodePipeTrace(bad, out))
                    continue;
                ++decoded;
                ASSERT_TRUE(payloadsInRange(out))
                    << t.programName << ": byte " << i << " ^ " << mask;
                sim::buildPipeLifetimes(out.events);
                sim::renderPipeView(out);
                sim::pipeTraceToChromeJson(out);
            }
        }
        EXPECT_GT(decoded, 0u) << t.programName;
    }
}

// ---- rendering -----------------------------------------------------

TEST(PipeViewRender, DrawsLifecycleGlyphs)
{
    sim::PipeTrace t = sampleTrace();
    t.events.clear();
    t.events.push_back(ev(PipeEventKind::kDispatch, 1, 1, 0));
    t.events.push_back(
        ev(PipeEventKind::kDefer, 1, 1, 0,
           static_cast<std::uint8_t>(cpu::DeferReason::kOperandInvalid)));
    t.events.push_back(ev(PipeEventKind::kDispatch, 2, 2, 1));
    t.events.push_back(ev(PipeEventKind::kReplay, 5, 1, 0));
    t.events.push_back(ev(PipeEventKind::kRetire, 6, 0, 0, 0, 2));

    const std::string s = sim::renderPipeView(t);
    EXPECT_NE(s.find("ffpipe: model=2P program=unit.s cycles=42"),
              std::string::npos)
        << s;
    // Deferred load: d...rR relative to its dispatch at cycle 1.
    EXPECT_NE(s.find("d...rR"), std::string::npos) << s;
    // Pre-executed add dispatched at 2, retires at 6: A...R.
    EXPECT_NE(s.find("A...R"), std::string::npos) << s;
}

TEST(PipeViewRender, ClipsAtWidthAndFiltersById)
{
    sim::PipeTrace t = sampleTrace();
    t.events.clear();
    t.events.push_back(ev(PipeEventKind::kDispatch, 1, 1, 0));
    t.events.push_back(ev(PipeEventKind::kDispatch, 1, 2, 1));
    t.events.push_back(ev(PipeEventKind::kRetire, 100, 0, 0, 0, 2));

    const std::string clipped =
        sim::renderPipeView(t, 32, 1, /*width=*/10);
    EXPECT_NE(clipped.find("A........>"), std::string::npos)
        << clipped;

    const std::string from2 = sim::renderPipeView(t, 32, /*from=*/2);
    EXPECT_EQ(from2.find(" 1 @0"), std::string::npos) << from2;
    EXPECT_NE(from2.find(" 2 @1"), std::string::npos) << from2;
}

} // namespace

