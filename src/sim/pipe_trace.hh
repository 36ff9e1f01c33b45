/**
 * @file
 * The ffpipe trace container: one run's pipeline lifecycle events
 * (PipeViewObserver) plus the engine layer's wall-clock spans
 * (engine::TraceData) behind a compact versioned binary format, with
 * exporters to Chrome trace-event JSON (Perfetto /
 * chrome://tracing) and to the Konata-style ASCII lane rendering
 * shared by `ffvm --pipeview` and `tools/ffview`.
 *
 * Like the snapshot (FSNP) and result-cache (FFRC) formats, the
 * header carries content hashes of the traced program and the
 * canonical configuration, so a trace can always be matched back to
 * the exact machine that produced it. Decoding is non-fatal: a
 * truncated or corrupt file reports failure instead of aborting, and
 * a corrupt length can never trigger a huge allocation (the
 * serial::Reader seq() guard).
 */

#ifndef FF_SIM_PIPE_TRACE_HH
#define FF_SIM_PIPE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/engine_trace.hh"
#include "cpu/core/pipeview_observer.hh"
#include "sim/harness.hh"

namespace ff
{
namespace sim
{

/** Bumped on any incompatible change to the ffpipe encoding. */
inline constexpr std::uint32_t kPipeTraceFormatVersion = 1;

/** One run's worth of pipeline + engine timeline data. */
struct PipeTrace
{
    CpuKind kind = CpuKind::kTwoPass; ///< model that produced it
    std::uint64_t programHash = 0;    ///< isa::Program::contentHash()
    std::uint64_t configHash = 0;     ///< canonicalConfigHash()
    std::string programName;          ///< display name of the program
    std::uint64_t cycles = 0;         ///< run length in cycles
    std::uint64_t dropped = 0;        ///< events past the observer cap

    /** Static-instruction text for every index appearing in events. */
    struct InstText
    {
        InstIdx idx = 0;
        std::int32_t srcLine = -1; ///< assembler provenance, -1 if none
        std::string text;          ///< disassembly
    };
    std::vector<InstText> text; ///< ascending by idx

    /** The recorded event stream, in firing order. */
    std::vector<cpu::PipeEvent> events;

    /** Engine-layer spans; empty unless engine tracing was on. */
    engine::TraceData engine;
};

/**
 * Assembles a PipeTrace from a finished observed run: stamps the
 * identity hashes of (@p prog, @p cfg), takes ownership of the
 * recorded @p events (a MetricsRecord's pipeEvents), and collects
 * disassembly text for every static instruction they reference.
 */
PipeTrace buildPipeTrace(const isa::Program &prog,
                         const cpu::CoreConfig &cfg, CpuKind kind,
                         std::uint64_t cycles,
                         std::vector<cpu::PipeEvent> events,
                         std::uint64_t dropped,
                         const std::string &program_name);

/** Serializes @p t into the versioned ffpipe container. */
std::vector<std::uint8_t> encodePipeTrace(const PipeTrace &t);

/**
 * Decodes a container produced by encodePipeTrace(). Non-fatal:
 * returns false (leaving @p out unspecified) on truncation, bad
 * magic, a foreign format version, or out-of-range enum/index
 * payloads.
 */
bool decodePipeTrace(const std::vector<std::uint8_t> &bytes,
                     PipeTrace &out);

/**
 * The reconstructed lifetime of one dynamic instruction. Cycle
 * fields are kNeverCycle when the stage never happened (e.g. a
 * pre-executed instruction never replays; an instruction in flight
 * at a conflict flush never retires).
 */
struct PipeLifetime
{
    DynId id = 0;
    InstIdx idx = 0;
    Cycle dispatch = kNeverCycle;
    Cycle replay = kNeverCycle;
    Cycle retire = kNeverCycle;
    Cycle squash = kNeverCycle;
    Cycle feedback = kNeverCycle;  ///< first feedback apply
    cpu::DeferReason defer = cpu::DeferReason::kNone;
    bool deferred = false;
};

/**
 * Replays @p events into per-dynamic-instruction lifetimes, in
 * dispatch order. Resolves group retires to individual instructions
 * through the coupling queue's FIFO program order, and applies the
 * two flush semantics: a conflict flush squashes everything in
 * flight immediately, while a B-DET flush squashes what survives the
 * same-cycle retirement of the pre-branch prefix.
 */
std::vector<PipeLifetime>
buildPipeLifetimes(const std::vector<cpu::PipeEvent> &events);

/**
 * Renders @p t as Chrome trace-event JSON (the "traceEvents" array
 * form) loadable in Perfetto or chrome://tracing: named A-pipe /
 * B-pipe / CQ / feedback tracks for the core (1 simulated cycle = 1
 * microsecond) and one lane per engine thread for the recorded
 * engine spans.
 */
std::string pipeTraceToChromeJson(const PipeTrace &t);

/**
 * Renders the first @p rows dynamic-instruction lifetimes with id >=
 * @p from_id as an ASCII lane diagram (one row per dynamic
 * instruction, columns are cycles relative to its dispatch, capped
 * at @p width columns). Deterministic for a deterministic run: the
 * pipeview smoke test pins a golden rendering.
 */
std::string renderPipeView(const PipeTrace &t, unsigned rows = 32,
                           DynId from_id = 1, unsigned width = 64);

} // namespace sim
} // namespace ff

#endif // FF_SIM_PIPE_TRACE_HH
