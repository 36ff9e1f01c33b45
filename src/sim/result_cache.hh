/**
 * @file
 * Content-addressed on-disk cache of simulation outcomes. A timed
 * run is a pure function of (program image, model kind, canonical
 * configuration, cycle budget); the cache keys each outcome by a
 * SHA-256 digest of exactly those inputs, so re-running a sweep the
 * simulator has seen before costs a file read instead of millions of
 * simulated cycles.
 *
 * The store is a directory of small binary files (two-level fan-out:
 * <dir>/<key[0:2]>/<key[2:]>.ffr) written atomically via a temp file
 * and rename, safe under concurrent sweeps. Each entry ends with a
 * 64-bit SHA-256 digest of the bytes before it. Corrupt, truncated or
 * stale-versioned entries are treated as misses — a bad file can
 * never poison an experiment, only slow it down. Runs that collect
 * metrics bypass the cache entirely (observers must see the whole
 * run).
 *
 * Configuration: ffvm --cache-dir=DIR or the FF_CACHE_DIR
 * environment variable enable the cache; FF_CACHE_BYPASS=1 (or
 * setResultCacheBypass) skips lookups but still refreshes entries.
 */

#ifndef FF_SIM_RESULT_CACHE_HH
#define FF_SIM_RESULT_CACHE_HH

#include <cstdint>
#include <string>

#include "sim/harness.hh"
#include "sim/sampled.hh"

namespace ff
{
namespace sim
{

/**
 * Entry-format version, folded into every key and checked in every
 * entry header. Bump whenever the SimOutcome encoding or the key
 * recipe changes; old entries then age out as unreachable keys.
 * v2: sampling parameters joined the key and entries grew an
 * optional SampledEstimate tail. v3: each entry ends with a 64-bit
 * SHA-256 digest of its other bytes, checked before decoding. v4:
 * entries carry the baseline issue counters and the two-pass CQ
 * depth sums, so sim::statsReport() renders a cached outcome whole.
 */
inline constexpr std::uint32_t kResultCacheVersion = 4;

/** Lifetime counters, for benches and the cache tests. */
struct ResultCacheStats
{
    std::uint64_t hits = 0;    ///< lookups answered from disk
    std::uint64_t misses = 0;  ///< lookups that found no usable entry
    std::uint64_t stores = 0;  ///< entries written
    std::uint64_t errors = 0;  ///< corrupt/stale entries or IO failures
};

/**
 * The content address of one run: a SHA-256 hex digest over the
 * cache version, snapshot format version, model kind, full program
 * image (code and data), canonicalized configuration, cycle budget,
 * and the (normalized) sampling parameters — a sampled estimate and
 * the detailed run it approximates always live under distinct keys.
 */
std::string resultCacheKey(const isa::Program &prog, CpuKind kind,
                           const cpu::CoreConfig &cfg,
                           std::uint64_t max_cycles,
                           const SampledOptions &sampled =
                               SampledOptions());

/**
 * Points the cache at @p dir (created on first store), overriding
 * FF_CACHE_DIR; the empty string disables the cache even when the
 * environment sets one.
 */
void setResultCacheDir(const std::string &dir);

/** Active cache directory ("" = disabled). */
std::string resultCacheDir();

/** True if a cache directory is configured. */
bool resultCacheEnabled();

/**
 * Bypass mode: lookups always miss, stores still happen — i.e.
 * re-measure everything and refresh the cache. Seeded from
 * FF_CACHE_BYPASS (any non-empty value but "0").
 */
void setResultCacheBypass(bool bypass);

/** Current bypass setting (see setResultCacheBypass()). */
bool resultCacheBypass();

/**
 * Loads the outcome stored under @p key into @p out. Counts a hit or
 * a miss; returns false (a miss) when the cache is disabled, in
 * bypass mode, the entry is absent, or the entry fails validation.
 */
bool resultCacheLookup(const std::string &key, SimOutcome &out);

/**
 * Persists @p outcome under @p key (atomic write). Returns false on
 * IO failure — callers lose nothing but future hits. No-op when the
 * cache is disabled or the outcome carries metrics.
 */
bool resultCacheStore(const std::string &key, const SimOutcome &outcome);

/** Snapshot of the lifetime counters. */
ResultCacheStats resultCacheStats();

/** Zeroes the lifetime counters (benches call this per phase). */
void resetResultCacheStats();

} // namespace sim
} // namespace ff

#endif // FF_SIM_RESULT_CACHE_HH
