/**
 * @file
 * Model-specific statistic bundles, and the ModelStats sink through
 * which the harness collects them. These live below cpu.hh so the
 * abstract CpuModel can expose a virtual collectStats() hook instead
 * of forcing callers to dynamic_cast to each concrete model. They are
 * a model's one way out for its counters: sim::statsReport() renders
 * the collected outcome, never a live model.
 */

#ifndef FF_CPU_MODEL_STATS_HH
#define FF_CPU_MODEL_STATS_HH

#include <array>
#include <cstdint>

#include "common/serialize.hh"
#include "memory/alat.hh"

namespace ff
{
namespace cpu
{

/**
 * Why an instruction was deferred to the B-pipe. Lives here (not in
 * the two-pass headers) so the core observer seam and the per-reason
 * statistics histogram can name the reason without pulling in the
 * coupling-queue machinery.
 */
enum class DeferReason : std::uint8_t
{
    kNone = 0,
    kOperandInvalid = 1,   ///< source register V=0
    kOperandInFlight = 2,  ///< source valid but not ready at dispatch
    kMshrFull = 3,         ///< load could not get an MSHR
    kStoreBufferFull = 4,  ///< store could not be buffered
    kConflictRetry = 5,    ///< forward-progress fallback after a
                           ///< store-conflict flush (the offending
                           ///< load re-executes non-speculatively)
    kNoFunctionalUnit = 6, ///< the A-pipe lacks the unit (Sec. 3.7
                           ///< partial replication)
};
inline constexpr unsigned kNumDeferReasons = 7;

/**
 * Stable snake_case name of @p r, used by the sim::statsReport dump, the
 * profile tables and the JSON metrics export (and pinned by the
 * name-table tests so a new reason cannot ship nameless).
 */
const char *deferReasonName(DeferReason r);

/** Counters reported by the two-pass experiments. */
struct TwoPassStats
{
    // A-pipe dispatch outcomes.
    std::uint64_t dispatched = 0;     ///< instructions entering the CQ
    std::uint64_t preExecuted = 0;    ///< completed in the A-pipe
    std::uint64_t deferred = 0;       ///< suppressed to the B-pipe
    std::array<std::uint64_t, kNumDeferReasons> deferredByReason{};

    // Memory behaviour.
    std::uint64_t loadsInA = 0;
    std::uint64_t loadsInB = 0;       ///< deferred loads executed in B
    std::uint64_t storesInA = 0;      ///< buffered speculatively
    std::uint64_t storesInB = 0;      ///< deferred stores executed in B
    std::uint64_t loadsPastDeferredStore = 0; ///< A-loads issued while
                                              ///< a deferred store was
                                              ///< queued (Sec. 4 stat)
    std::uint64_t storeConflictFlushes = 0;
    std::uint64_t storeForwardings = 0; ///< A-loads fed by the buffer

    // Branch resolution split (Sec. 4: 32% A / 68% B in the paper).
    std::uint64_t branchesResolvedInA = 0;
    std::uint64_t branchesResolvedInB = 0;
    std::uint64_t aDetMispredicts = 0;
    std::uint64_t bDetMispredicts = 0;

    // Pipe-coupling behaviour.
    std::uint64_t aStallCqFull = 0;    ///< A-pipe cycles lost to CQ room
    std::uint64_t aStallAnticipable = 0; ///< ablation-A2 stall cycles
    std::uint64_t aStallThrottled = 0; ///< issue-moderation pause cycles
    std::uint64_t regroupedGroups = 0; ///< extra groups fused by 2Pre
    std::uint64_t feedbackApplied = 0;
    std::uint64_t feedbackDropped = 0;
    std::uint64_t registersRepaired = 0; ///< A-file repair volume
    std::uint64_t cqDepthSum = 0;      ///< CQ occupancy summed per cycle
    std::uint64_t cqDepthSamples = 0;  ///< cycles in cqDepthSum
};

/**
 * Writes every TwoPassStats counter to @p w in declaration order: the
 * one encoding shared by model snapshots and result-cache entries.
 */
void saveStats(serial::Writer &w, const TwoPassStats &s);

/** Reads back what saveStats() wrote for a TwoPassStats. */
void restoreStats(serial::Reader &r, TwoPassStats &s);

/** Counters of the in-order issue stage (baseline and run-ahead). */
struct BaselineStats
{
    std::uint64_t loadsIssued = 0;     ///< predicated-true loads issued
    std::uint64_t storesIssued = 0;    ///< predicated-true stores issued
    std::uint64_t branchesRetired = 0; ///< branches resolved at issue
    std::uint64_t mispredicts = 0;     ///< of those, mispredicted
};

/**
 * Writes every BaselineStats counter to @p w in declaration order:
 * the one encoding shared by model snapshots and result-cache entries.
 */
void saveStats(serial::Writer &w, const BaselineStats &s);

/** Reads back what saveStats() wrote for a BaselineStats. */
void restoreStats(serial::Reader &r, BaselineStats &s);

/** Run-ahead-specific counters. */
struct RunaheadStats
{
    std::uint64_t episodes = 0;        ///< run-ahead entries
    std::uint64_t runaheadCycles = 0;
    std::uint64_t runaheadLoads = 0;   ///< prefetching accesses issued
    std::uint64_t runaheadInsts = 0;   ///< pseudo-retired in run-ahead
    std::uint64_t invResults = 0;      ///< INV-propagated results
};

/**
 * Writes every RunaheadStats counter to @p w in declaration order:
 * the one encoding shared by model snapshots and result-cache entries.
 */
void saveStats(serial::Writer &w, const RunaheadStats &s);

/** Reads back what saveStats() wrote for a RunaheadStats. */
void restoreStats(serial::Reader &r, RunaheadStats &s);

/**
 * Everything a model can hand the harness beyond the common
 * interface. Models fill only the sections they own; the rest stay
 * default-initialized.
 */
struct ModelStats
{
    BaselineStats baseline;
    TwoPassStats twopass;
    memory::AlatStats alat;
    RunaheadStats runahead;
};

} // namespace cpu
} // namespace ff

#endif // FF_CPU_MODEL_STATS_HH
