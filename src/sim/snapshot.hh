/**
 * @file
 * Whole-machine snapshots of a timed model mid-run, and the warm-up
 * fork primitive built on them. A Snapshot captures every bit of
 * simulation state a timed model owns (core kernel, memory
 * hierarchy, predictor, front end, model structures) behind a
 * versioned binary format, keyed by content hashes of the program and
 * the canonicalized configuration so a snapshot can never silently be
 * restored onto the wrong machine.
 *
 * With SweepOptions::warmupCycles set, the batch executor runs each
 * plain cell as runWarmup() then resumeSnapshot(); because restore is
 * bit-exact, forked runs are bit-identical to cold ones.
 */

#ifndef FF_SIM_SNAPSHOT_HH
#define FF_SIM_SNAPSHOT_HH

#include <cstdint>
#include <vector>

#include "common/serialize.hh"
#include "sim/harness.hh"

namespace ff
{
namespace sim
{

/**
 * Bumped whenever any component's save()/restore() encoding changes;
 * decodeSnapshot() rejects other versions, and the result cache
 * folds this into its keys so stale on-disk artifacts age out.
 * v3: the two-pass CQ depth is a sum and a count, and the hierarchy
 * writes its access counters in the result cache's block order.
 * v4: the run-ahead core is a baseline core, so its model section
 * starts with the baseline section (four issue counters included).
 * v5: the two-pass CQ depth sum and count moved into TwoPassStats,
 * so the two-pass model section writes them inside its counters.
 */
inline constexpr std::uint32_t kSnapshotFormatVersion = 5;

/** A timed model frozen mid-run. */
struct Snapshot
{
    CpuKind kind = CpuKind::kBaseline; ///< model the state belongs to
    std::uint64_t cycle = 0;        ///< resume point
    std::uint64_t programHash = 0;  ///< isa::Program::contentHash()
    std::uint64_t configHash = 0;   ///< canonicalConfigHash()
    std::vector<std::uint8_t> state; ///< CpuModel::saveState bytes
};

/**
 * Writes every CoreConfig field (group limits, cache geometries,
 * memory timing, predictor, front end, two-pass and run-ahead knobs)
 * into @p w in a fixed order. This is the canonical byte image of a
 * configuration: equal images mean models behave identically, and
 * both the snapshot guard hash and the result-cache key are digests
 * of it.
 */
void canonicalizeConfig(const cpu::CoreConfig &cfg, serial::Writer &w);

/** 64-bit digest of canonicalizeConfig() for snapshot guards. */
std::uint64_t canonicalConfigHash(const cpu::CoreConfig &cfg);

/**
 * Captures @p model into a Snapshot stamped with the identity hashes
 * of @p prog and @p cfg — pass the same pair the model was
 * constructed from.
 */
Snapshot saveSnapshot(const cpu::CpuModel &model, CpuKind kind,
                      const isa::Program &prog,
                      const cpu::CoreConfig &cfg);

/**
 * Restores @p snap onto a freshly constructed @p model. Fatal if the
 * snapshot belongs to a different (kind, program, config) triple or
 * the state bytes are structurally corrupt: inside the simulator a
 * bad snapshot is a bug, never a recoverable condition.
 */
void restoreSnapshot(cpu::CpuModel &model, const Snapshot &snap,
                     CpuKind kind, const isa::Program &prog,
                     const cpu::CoreConfig &cfg);

/** Serializes @p snap into the versioned container format. */
std::vector<std::uint8_t> encodeSnapshot(const Snapshot &snap);

/**
 * Decodes a container produced by encodeSnapshot(). Non-fatal:
 * returns false (leaving @p out unspecified) on truncation, bad
 * magic, or a foreign format version.
 */
bool decodeSnapshot(const std::vector<std::uint8_t> &bytes,
                    Snapshot &out);

/**
 * Like decodeSnapshot() but fatal with a precise diagnosis. A
 * container written by a different kSnapshotFormatVersion (e.g. a
 * stale on-disk artifact from before a format bump) reports both
 * versions; corruption and bad magic get their own message. Use this
 * wherever a snapshot is trusted input rather than a probe.
 */
Snapshot decodeSnapshotOrDie(const std::vector<std::uint8_t> &bytes);

/** What runWarmup() produced. */
struct WarmupResult
{
    /**
     * True if the program halted (or the cycle budget expired)
     * during warm-up — the run is finished and @p outcome holds its
     * complete result; no fork is possible or needed.
     */
    bool completed = false;
    SimOutcome outcome; ///< valid iff completed
    Snapshot snap;      ///< valid iff !completed
};

/**
 * Runs the first @p warmup_cycles of (@p prog, @p kind, @p cfg) and
 * snapshots the machine, so any number of equal-config runs can fork
 * from the saved state instead of repeating the prefix. The program
 * passes the standard verification wall first.
 *
 * Budget semantics: both parameters count total simulated cycles
 * from cycle 0; the warm-up leg runs min(warmup_cycles, max_cycles)
 * and a prefix that already completes the program (or exhausts the
 * whole budget) reports a finished outcome instead of a snapshot.
 */
WarmupResult runWarmup(const isa::Program &prog, CpuKind kind,
                       const cpu::CoreConfig &cfg,
                       std::uint64_t warmup_cycles,
                       std::uint64_t max_cycles = kDefaultMaxCycles);

/**
 * The fork half: constructs a fresh model, restores @p snap, and
 * runs to completion under the same overall @p max_cycles budget a
 * cold simulate() would have.
 *
 * Budget semantics: @p max_cycles counts *total* simulated cycles
 * from cycle 0, not cycles remaining after the fork — the resumed
 * run gets max_cycles - snap.cycle further cycles, so forked and
 * cold runs of one budget are bit-identical. A budget at or below
 * the snapshot cycle leaves the resumed model no room to advance
 * and is rejected fatally (it could only ever report a spurious
 * timeout).
 */
SimOutcome resumeSnapshot(const isa::Program &prog, CpuKind kind,
                          const cpu::CoreConfig &cfg,
                          const Snapshot &snap,
                          std::uint64_t max_cycles = kDefaultMaxCycles);

} // namespace sim
} // namespace ff

#endif // FF_SIM_SNAPSHOT_HH
