#include "sim/pipe_trace.hh"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <sstream>
#include <unordered_map>

#include "common/metrics.hh"
#include "common/serialize.hh"
#include "isa/disasm.hh"
#include "sim/snapshot.hh"

namespace ff
{
namespace sim
{

namespace
{

/** Container magic: "FFPT" (flea-flicker pipe trace). */
constexpr std::uint32_t kPipeTraceMagic = serial::tag("FFPT");

constexpr std::uint32_t kTextTag = serial::tag("TEXT");
constexpr std::uint32_t kEventTag = serial::tag("EVNT");
constexpr std::uint32_t kEngineTag = serial::tag("ENGS");

/** Exclusive bound of an event's @c a payload: the size of the enum
 *  it carries for defer, flush and cycle-class events. */
unsigned
payloadBound(cpu::PipeEventKind k)
{
    switch (k) {
      case cpu::PipeEventKind::kDefer:
        return cpu::kNumDeferReasons;
      case cpu::PipeEventKind::kFlush:
        return cpu::kNumFlushKinds;
      case cpu::PipeEventKind::kCycleClass:
        return cpu::kNumCycleClasses;
      default:
        return 256; // unused by the other kinds
    }
}

} // namespace

PipeTrace
buildPipeTrace(const isa::Program &prog, const cpu::CoreConfig &cfg,
               CpuKind kind, std::uint64_t cycles,
               std::vector<cpu::PipeEvent> events,
               std::uint64_t dropped,
               const std::string &program_name)
{
    PipeTrace t;
    t.kind = kind;
    t.programHash = prog.contentHash();
    t.configHash = canonicalConfigHash(cfg);
    t.programName = program_name;
    t.cycles = cycles;
    t.dropped = dropped;
    t.events = std::move(events);

    // Text rows for every static index the events reference, in
    // ascending order (std::map keeps it sorted).
    std::map<InstIdx, bool> used;
    for (const cpu::PipeEvent &e : t.events) {
        switch (e.kind) {
          case cpu::PipeEventKind::kDispatch:
          case cpu::PipeEventKind::kDefer:
          case cpu::PipeEventKind::kReplay:
          case cpu::PipeEventKind::kFlush:
          case cpu::PipeEventKind::kRetire:
            if (e.idx < prog.size())
                used.emplace(e.idx, true);
            break;
          default:
            break;
        }
    }
    t.text.reserve(used.size());
    for (const auto &entry : used) {
        PipeTrace::InstText row;
        row.idx = entry.first;
        row.srcLine = prog.inst(entry.first).srcLine;
        row.text = isa::disasm(prog.inst(entry.first));
        t.text.push_back(std::move(row));
    }
    return t;
}

std::vector<std::uint8_t>
encodePipeTrace(const PipeTrace &t)
{
    serial::Writer w;
    w.u32(kPipeTraceMagic);
    w.u32(kPipeTraceFormatVersion);
    w.u8(static_cast<std::uint8_t>(t.kind));
    w.u64(t.programHash);
    w.u64(t.configHash);
    w.str(t.programName);
    w.u64(t.cycles);
    w.u64(t.dropped);

    w.section(kTextTag);
    w.u64(t.text.size());
    for (const PipeTrace::InstText &row : t.text) {
        w.u32(row.idx);
        w.i64(row.srcLine);
        w.str(row.text);
    }

    w.section(kEventTag);
    w.u64(t.events.size());
    for (const cpu::PipeEvent &e : t.events) {
        w.u64(e.cycle);
        w.u64(e.id);
        w.u32(e.idx);
        w.u8(static_cast<std::uint8_t>(e.kind));
        w.u8(e.a);
        w.u16(e.b);
    }

    w.section(kEngineTag);
    w.u64(t.engine.names.size());
    for (const std::string &n : t.engine.names)
        w.str(n);
    w.u64(t.engine.lanes.size());
    for (const std::string &l : t.engine.lanes)
        w.str(l);
    w.u64(t.engine.spans.size());
    for (const engine::TraceSpan &s : t.engine.spans) {
        w.u32(s.name);
        w.u32(s.lane);
        w.u64(s.startUs);
        w.u64(s.durUs);
        w.boolean(s.instant);
    }
    return w.take();
}

bool
decodePipeTrace(const std::vector<std::uint8_t> &bytes, PipeTrace &out)
{
    serial::Reader r(bytes);
    if (r.u32() != kPipeTraceMagic ||
        r.u32() != kPipeTraceFormatVersion) {
        return false;
    }
    const std::uint8_t kind = r.u8();
    if (kind >= cpu::kNumCpuKinds)
        return false;
    out.kind = static_cast<CpuKind>(kind);
    out.programHash = r.u64();
    out.configHash = r.u64();
    out.programName = r.str();
    out.cycles = r.u64();
    out.dropped = r.u64();

    if (!r.section(kTextTag))
        return false;
    out.text.clear();
    const std::size_t nt = r.seq(13); // u32 + i64 + min str
    out.text.reserve(nt);
    for (std::size_t i = 0; i < nt && r.ok(); ++i) {
        PipeTrace::InstText row;
        row.idx = r.u32();
        row.srcLine = static_cast<std::int32_t>(r.i64());
        row.text = r.str();
        out.text.push_back(std::move(row));
    }

    if (!r.section(kEventTag))
        return false;
    out.events.clear();
    const std::size_t ne = r.seq(24);
    out.events.reserve(ne);
    for (std::size_t i = 0; i < ne && r.ok(); ++i) {
        cpu::PipeEvent e;
        e.cycle = r.u64();
        e.id = r.u64();
        e.idx = r.u32();
        const std::uint8_t k = r.u8();
        if (k >= cpu::kNumPipeEventKinds)
            return false;
        e.kind = static_cast<cpu::PipeEventKind>(k);
        e.a = r.u8();
        e.b = r.u16();
        if (e.a >= payloadBound(e.kind))
            return false;
        out.events.push_back(e);
    }

    if (!r.section(kEngineTag))
        return false;
    out.engine = engine::TraceData{};
    const std::size_t nn = r.seq(8);
    out.engine.names.reserve(nn);
    for (std::size_t i = 0; i < nn && r.ok(); ++i)
        out.engine.names.push_back(r.str());
    const std::size_t nl = r.seq(8);
    out.engine.lanes.reserve(nl);
    for (std::size_t i = 0; i < nl && r.ok(); ++i)
        out.engine.lanes.push_back(r.str());
    const std::size_t ns = r.seq(25);
    out.engine.spans.reserve(ns);
    for (std::size_t i = 0; i < ns && r.ok(); ++i) {
        engine::TraceSpan s;
        s.name = r.u32();
        s.lane = r.u32();
        s.startUs = r.u64();
        s.durUs = r.u64();
        s.instant = r.boolean();
        if (r.ok() && (s.name >= out.engine.names.size() ||
                       s.lane >= out.engine.lanes.size())) {
            return false;
        }
        out.engine.spans.push_back(s);
    }
    return r.ok() && r.atEnd();
}

std::vector<PipeLifetime>
buildPipeLifetimes(const std::vector<cpu::PipeEvent> &events)
{
    std::vector<PipeLifetime> lives;
    std::unordered_map<DynId, std::size_t> byId;
    std::deque<std::size_t> inFlight; // dispatch (program) order
    bool bdetPending = false;

    auto squashAll = [&](Cycle now) {
        for (const std::size_t k : inFlight)
            lives[k].squash = now;
        inFlight.clear();
    };

    for (const cpu::PipeEvent &e : events) {
        switch (e.kind) {
          case cpu::PipeEventKind::kDispatch: {
            PipeLifetime l;
            l.id = e.id;
            l.idx = e.idx;
            l.dispatch = e.cycle;
            byId.emplace(e.id, lives.size());
            inFlight.push_back(lives.size());
            lives.push_back(l);
            break;
          }
          case cpu::PipeEventKind::kDefer: {
            const auto it = byId.find(e.id);
            if (it != byId.end()) {
                lives[it->second].deferred = true;
                lives[it->second].defer =
                    static_cast<cpu::DeferReason>(e.a);
            }
            break;
          }
          case cpu::PipeEventKind::kReplay: {
            const auto it = byId.find(e.id);
            if (it != byId.end())
                lives[it->second].replay = e.cycle;
            break;
          }
          case cpu::PipeEventKind::kFeedback: {
            const auto it = byId.find(e.id);
            if (it != byId.end() &&
                lives[it->second].feedback == kNeverCycle) {
                lives[it->second].feedback = e.cycle;
            }
            break;
          }
          case cpu::PipeEventKind::kRetire: {
            // The coupling queue is FIFO in program order, so a
            // group retire of N slots retires the N oldest in-flight
            // dynamic instructions.
            for (std::uint16_t s = 0; s < e.b && !inFlight.empty();
                 ++s) {
                lives[inFlight.front()].retire = e.cycle;
                inFlight.pop_front();
            }
            if (bdetPending) {
                // The B-DET flush event preceded this retire in the
                // same cycle: everything younger than the retired
                // prefix is wrong-path.
                squashAll(e.cycle);
                bdetPending = false;
            }
            break;
          }
          case cpu::PipeEventKind::kFlush: {
            if (static_cast<cpu::FlushKind>(e.a) ==
                cpu::FlushKind::kConflict) {
                squashAll(e.cycle);
            } else {
                bdetPending = true;
            }
            break;
          }
          case cpu::PipeEventKind::kCycleClass:
            break;
        }
    }
    return lives;
}

// --------------------------------------------------------------------
// Chrome trace-event JSON export.
// --------------------------------------------------------------------

namespace
{

/** Core process tracks. */
constexpr std::uint64_t kCorePid = 1;
constexpr std::uint64_t kEnginePid = 2;
constexpr std::uint64_t kApipeTid = 1;
constexpr std::uint64_t kBpipeTid = 2;
constexpr std::uint64_t kCqTid = 3;
constexpr std::uint64_t kFeedbackTid = 4;

void
emitMeta(metrics::JsonWriter &w, std::uint64_t pid, std::uint64_t tid,
         const char *what, const std::string &name)
{
    w.beginObject();
    w.kv("ph", "M");
    w.kv("pid", pid);
    if (tid != 0)
        w.kv("tid", tid);
    w.kv("name", what);
    w.key("args");
    w.beginObject();
    w.kv("name", name);
    w.endObject();
    w.endObject();
}

void
beginEvent(metrics::JsonWriter &w, const char *ph, std::uint64_t pid,
           std::uint64_t tid, std::uint64_t ts,
           const std::string &name)
{
    w.beginObject();
    w.kv("ph", ph);
    w.kv("pid", pid);
    w.kv("tid", tid);
    w.kv("ts", ts);
    w.kv("name", name);
}

} // namespace

std::string
pipeTraceToChromeJson(const PipeTrace &t)
{
    std::ostringstream os;
    metrics::JsonWriter w(os);

    std::unordered_map<InstIdx, const PipeTrace::InstText *> text;
    for (const PipeTrace::InstText &row : t.text)
        text.emplace(row.idx, &row);
    auto nameOf = [&](InstIdx idx) {
        std::string name = "@";
        name += std::to_string(idx);
        const auto it = text.find(idx);
        if (it != text.end()) {
            name += ' ';
            name += it->second->text;
        }
        return name;
    };

    w.beginObject();
    w.kv("displayTimeUnit", "ms");
    w.key("traceEvents");
    w.beginArray();

    // ---- track naming metadata -------------------------------------
    emitMeta(w, kCorePid, 0, "process_name",
             std::string("core ") + cpuKindName(t.kind) + " (" +
                 t.programName + ")");
    emitMeta(w, kCorePid, kApipeTid, "thread_name", "A-pipe");
    emitMeta(w, kCorePid, kBpipeTid, "thread_name", "B-pipe");
    emitMeta(w, kCorePid, kCqTid, "thread_name", "CQ");
    emitMeta(w, kCorePid, kFeedbackTid, "thread_name", "feedback");

    // ---- core events: 1 simulated cycle = 1 us ---------------------
    std::uint64_t cqDepth = 0;
    bool bdetPending = false;
    Cycle clsStart = 0;
    std::uint8_t cls = 0;
    bool haveCls = false;

    auto emitCqSample = [&](Cycle now) {
        beginEvent(w, "C", kCorePid, kCqTid, now, "cq");
        w.key("args");
        w.beginObject();
        w.kv("depth", cqDepth);
        w.endObject();
        w.endObject();
    };
    auto closeClsSpan = [&](Cycle end) {
        if (!haveCls || end <= clsStart)
            return;
        beginEvent(w, "X", kCorePid, kBpipeTid, clsStart,
                   cpu::cycleClassName(
                       static_cast<cpu::CycleClass>(cls)));
        w.kv("dur", end - clsStart);
        w.endObject();
    };

    for (const cpu::PipeEvent &e : t.events) {
        switch (e.kind) {
          case cpu::PipeEventKind::kDispatch:
            beginEvent(w, "i", kCorePid, kApipeTid, e.cycle,
                       nameOf(e.idx));
            w.kv("s", "t");
            w.key("args");
            w.beginObject();
            w.kv("id", e.id);
            w.endObject();
            w.endObject();
            ++cqDepth;
            emitCqSample(e.cycle);
            break;
          case cpu::PipeEventKind::kDefer:
            beginEvent(w, "i", kCorePid, kApipeTid, e.cycle,
                       std::string("defer:") +
                           cpu::deferReasonName(
                               static_cast<cpu::DeferReason>(e.a)));
            w.kv("s", "t");
            w.key("args");
            w.beginObject();
            w.kv("id", e.id);
            w.kv("inst", nameOf(e.idx));
            w.endObject();
            w.endObject();
            break;
          case cpu::PipeEventKind::kReplay:
            beginEvent(w, "i", kCorePid, kBpipeTid, e.cycle,
                       "replay " + nameOf(e.idx));
            w.kv("s", "t");
            w.key("args");
            w.beginObject();
            w.kv("id", e.id);
            w.endObject();
            w.endObject();
            break;
          case cpu::PipeEventKind::kFeedback:
            beginEvent(w, "i", kCorePid, kFeedbackTid, e.cycle,
                       "apply");
            w.kv("s", "t");
            w.key("args");
            w.beginObject();
            w.kv("id", e.id);
            w.kv("slot", static_cast<std::uint64_t>(e.b));
            w.endObject();
            w.endObject();
            break;
          case cpu::PipeEventKind::kRetire:
            beginEvent(w, "i", kCorePid, kBpipeTid, e.cycle,
                       "retire " + nameOf(e.idx) + " x" +
                           std::to_string(e.b));
            w.kv("s", "t");
            w.endObject();
            cqDepth -= std::min<std::uint64_t>(cqDepth, e.b);
            if (bdetPending) {
                cqDepth = 0;
                bdetPending = false;
            }
            emitCqSample(e.cycle);
            break;
          case cpu::PipeEventKind::kFlush:
            beginEvent(w, "i", kCorePid, kBpipeTid, e.cycle,
                       std::string("flush:") +
                           cpu::flushKindName(
                               static_cast<cpu::FlushKind>(e.a)));
            w.kv("s", "p");
            w.endObject();
            if (static_cast<cpu::FlushKind>(e.a) ==
                cpu::FlushKind::kConflict) {
                cqDepth = 0;
                emitCqSample(e.cycle);
            } else {
                bdetPending = true;
            }
            break;
          case cpu::PipeEventKind::kCycleClass:
            closeClsSpan(e.cycle);
            clsStart = e.cycle;
            cls = e.a;
            haveCls = true;
            break;
        }
    }
    closeClsSpan(t.cycles);

    // ---- engine lanes: already in wall-clock microseconds ----------
    if (!t.engine.spans.empty()) {
        emitMeta(w, kEnginePid, 0, "process_name", "engine");
        for (std::size_t l = 0; l < t.engine.lanes.size(); ++l) {
            emitMeta(w, kEnginePid, l + 1, "thread_name",
                     t.engine.lanes[l]);
        }
        for (const engine::TraceSpan &s : t.engine.spans) {
            const std::string &name = t.engine.names[s.name];
            if (s.instant) {
                beginEvent(w, "i", kEnginePid, s.lane + 1, s.startUs,
                           name);
                w.kv("s", "t");
                w.endObject();
            } else {
                beginEvent(w, "X", kEnginePid, s.lane + 1, s.startUs,
                           name);
                w.kv("dur", s.durUs);
                w.endObject();
            }
        }
    }

    w.endArray();
    w.endObject();
    os << "\n";
    return os.str();
}

// --------------------------------------------------------------------
// ASCII lane rendering (shared by ffvm --pipeview and ffview).
// --------------------------------------------------------------------

std::string
renderPipeView(const PipeTrace &t, unsigned rows, DynId from_id,
               unsigned width)
{
    if (width < 8)
        width = 8;
    std::ostringstream os;
    os << "ffpipe: model=" << cpuKindName(t.kind) << " program="
       << t.programName << " cycles=" << t.cycles << "\n";
    os << "events: " << t.events.size() << " recorded, " << t.dropped
       << " dropped\n";

    const std::vector<PipeLifetime> lives =
        buildPipeLifetimes(t.events);
    if (lives.empty()) {
        os << "(no per-instruction lifecycle events -- only the "
              "two-pass models dispatch through the coupling "
              "queue)\n";
        return os.str();
    }

    os << "glyphs: A pre-executed dispatch   d deferred dispatch   "
          ". in queue\n"
          "        r B replay   R retire   x squash   f feedback   "
          "> clipped\n\n";

    std::unordered_map<InstIdx, const PipeTrace::InstText *> text;
    for (const PipeTrace::InstText &row : t.text)
        text.emplace(row.idx, &row);

    char head[64];
    std::snprintf(head, sizeof(head), "%6s %-5s %7s  %-24s %s\n",
                  "id", "@idx", "cycle", "instruction", "pipeline");
    os << head;

    unsigned shown = 0;
    for (const PipeLifetime &l : lives) {
        if (l.id < from_id)
            continue;
        if (shown >= rows)
            break;
        ++shown;

        // The lane: columns are cycles since dispatch.
        Cycle end = l.dispatch;
        for (const Cycle c : {l.replay, l.retire, l.squash,
                              l.feedback}) {
            if (c != kNeverCycle && c > end)
                end = c;
        }
        const std::uint64_t span = end - l.dispatch + 1;
        const bool clipped = span > width;
        const std::size_t cols =
            clipped ? width : static_cast<std::size_t>(span);
        std::string lane(cols, '.');
        auto put = [&](Cycle c, char g) {
            if (c == kNeverCycle)
                return;
            const std::uint64_t pos = c - l.dispatch;
            if (pos < cols)
                lane[static_cast<std::size_t>(pos)] = g;
        };
        put(l.feedback, 'f');
        put(l.replay, 'r');
        put(l.retire, 'R');
        put(l.squash, 'x');
        lane[0] = l.deferred ? 'd' : 'A';
        if (clipped)
            lane[cols - 1] = '>';

        const auto it = text.find(l.idx);
        std::string dis = it != text.end() ? it->second->text
                                           : std::string("?");
        if (dis.size() > 24)
            dis = dis.substr(0, 21) + "...";

        char prefix[80];
        std::snprintf(prefix, sizeof(prefix),
                      "%6llu @%-4u %7llu  %-24s ",
                      static_cast<unsigned long long>(l.id), l.idx,
                      static_cast<unsigned long long>(l.dispatch),
                      dis.c_str());
        os << prefix << lane << "\n";
    }
    if (shown == 0)
        os << "(no dynamic instructions with id >= " << from_id
           << ")\n";
    return os.str();
}

} // namespace sim
} // namespace ff
