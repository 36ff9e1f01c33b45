#include "sim/result_cache.hh"

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <vector>

#include <unistd.h>

#include "common/engine_trace.hh"
#include "common/hash.hh"
#include "common/serialize.hh"
#include "sim/snapshot.hh"

namespace ff
{
namespace sim
{

namespace
{

namespace fs = std::filesystem;

/** Entry magic: "FFRC" (flea-flicker result cache). */
constexpr std::uint32_t kCacheMagic = serial::tag("FFRC");

std::mutex g_cfgMu;
std::string g_dir;       // explicit override (valid when g_dirSet)
bool g_dirSet = false;   // setResultCacheDir() called
bool g_bypass = false;
bool g_bypassSet = false;

std::atomic<std::uint64_t> g_hits{0};
std::atomic<std::uint64_t> g_misses{0};
std::atomic<std::uint64_t> g_stores{0};
std::atomic<std::uint64_t> g_errors{0};

/** Monotonic suffix so concurrent stores never share a temp file. */
std::atomic<std::uint64_t> g_tmpSeq{0};

std::string
envOr(const char *name, const std::string &fallback)
{
    const char *v = std::getenv(name);
    return v != nullptr ? std::string(v) : fallback;
}

fs::path
entryPath(const std::string &dir, const std::string &key)
{
    // Two-level fan-out keeps directories small under big sweeps.
    return fs::path(dir) / key.substr(0, 2) / (key.substr(2) + ".ffr");
}

/**
 * The entry trailer: the first 8 bytes of the SHA-256 of the @p n
 * entry bytes at @p data that precede it.
 */
std::uint64_t
entryDigest(const std::uint8_t *data, std::size_t n)
{
    Sha256 h;
    h.update(data, n);
    return h.digest64();
}

void
encodeOutcome(serial::Writer &w, const SimOutcome &o)
{
    w.u8(static_cast<std::uint8_t>(o.kind));
    w.boolean(o.run.halted);
    w.u64(o.run.cycles);
    w.u64(o.run.instsRetired);
    w.u64(o.run.groupsRetired);
    for (const std::uint64_t c : o.cycles.counts)
        w.u64(c);
    memory::saveStats(w, o.accesses);
    branch::saveStats(w, o.branches);
    cpu::saveStats(w, o.baseline);
    cpu::saveStats(w, o.twopass);
    memory::saveStats(w, o.alat);
    cpu::saveStats(w, o.runahead);
    w.u64(o.regFingerprint);
    w.u64(o.memFingerprint);
    w.u64(o.checksum);
    // Optional sampled-estimate tail (v2).
    w.boolean(o.sampled != nullptr);
    if (o.sampled != nullptr) {
        const SampledEstimate &e = *o.sampled;
        w.u64(e.options.intervalCycles);
        w.u64(e.options.detailCycles);
        w.u64(e.options.warmupCycles);
        w.u64(e.options.maxIntervals);
        w.u64(e.spacing);
        w.u64(e.intervalsTotal);
        w.u64(e.intervalsMeasured);
        w.u64(e.sampledCycles);
        w.u64(e.sampledInsts);
        w.u64(e.totalInsts);
        w.u64(e.prefixCycles);
        w.u64(e.prefixInsts);
        w.f64(e.ipcMean);
        w.f64(e.ipcStdDev);
        w.f64(e.ipcStdErr);
        w.f64(e.ipcCi95);
        w.f64(e.estimatedCycles);
    }
}

bool
decodeOutcome(serial::Reader &r, SimOutcome &o)
{
    const std::uint8_t kind = r.u8();
    if (kind >= cpu::kNumCpuKinds)
        return false;
    o.kind = static_cast<CpuKind>(kind);
    o.run.halted = r.boolean();
    o.run.cycles = r.u64();
    o.run.instsRetired = r.u64();
    o.run.groupsRetired = r.u64();
    for (std::uint64_t &c : o.cycles.counts)
        c = r.u64();
    memory::restoreStats(r, o.accesses);
    branch::restoreStats(r, o.branches);
    cpu::restoreStats(r, o.baseline);
    cpu::restoreStats(r, o.twopass);
    memory::restoreStats(r, o.alat);
    cpu::restoreStats(r, o.runahead);
    o.regFingerprint = r.u64();
    o.memFingerprint = r.u64();
    o.checksum = r.u64();
    o.metrics.reset();
    o.sampled.reset();
    if (r.boolean()) {
        auto e = std::make_shared<SampledEstimate>();
        e->options.intervalCycles = r.u64();
        e->options.detailCycles = r.u64();
        e->options.warmupCycles = r.u64();
        e->options.maxIntervals = r.u64();
        e->spacing = r.u64();
        e->intervalsTotal = r.u64();
        e->intervalsMeasured = r.u64();
        e->sampledCycles = r.u64();
        e->sampledInsts = r.u64();
        e->totalInsts = r.u64();
        e->prefixCycles = r.u64();
        e->prefixInsts = r.u64();
        e->ipcMean = r.f64();
        e->ipcStdDev = r.f64();
        e->ipcStdErr = r.f64();
        e->ipcCi95 = r.f64();
        e->estimatedCycles = r.f64();
        o.sampled = std::move(e);
    }
    return r.ok();
}

} // namespace

std::string
resultCacheKey(const isa::Program &prog, CpuKind kind,
               const cpu::CoreConfig &cfg, std::uint64_t max_cycles,
               const SampledOptions &sampled)
{
    serial::Writer w;
    w.u32(kCacheMagic);
    w.u32(kResultCacheVersion);
    w.u32(kSnapshotFormatVersion);
    w.u8(static_cast<std::uint8_t>(kind));
    w.u64(prog.contentHash());
    canonicalizeConfig(cfg, w);
    w.u64(max_cycles);
    // Normalized, so equivalent sampling spellings share an address;
    // the disabled marker keeps detailed keys distinct from every
    // sampled one.
    const SampledOptions s = sampled.normalized();
    w.boolean(s.enabled());
    if (s.enabled()) {
        w.u64(s.intervalCycles);
        w.u64(s.detailCycles);
        w.u64(s.warmupCycles);
        w.u64(s.maxIntervals);
    }
    return Sha256::hex(w.buffer().data(), w.buffer().size());
}

void
setResultCacheDir(const std::string &dir)
{
    std::lock_guard<std::mutex> lk(g_cfgMu);
    g_dir = dir;
    g_dirSet = true;
}

std::string
resultCacheDir()
{
    std::lock_guard<std::mutex> lk(g_cfgMu);
    if (!g_dirSet) {
        g_dir = envOr("FF_CACHE_DIR", "");
        g_dirSet = true;
    }
    return g_dir;
}

bool
resultCacheEnabled()
{
    return !resultCacheDir().empty();
}

void
setResultCacheBypass(bool bypass)
{
    std::lock_guard<std::mutex> lk(g_cfgMu);
    g_bypass = bypass;
    g_bypassSet = true;
}

bool
resultCacheBypass()
{
    std::lock_guard<std::mutex> lk(g_cfgMu);
    if (!g_bypassSet) {
        const std::string v = envOr("FF_CACHE_BYPASS", "");
        g_bypass = !v.empty() && v != "0";
        g_bypassSet = true;
    }
    return g_bypass;
}

bool
resultCacheLookup(const std::string &key, SimOutcome &out)
{
    const std::string dir = resultCacheDir();
    if (dir.empty())
        return false;
    if (resultCacheBypass()) {
        ++g_misses;
        engine::traceInstant("cache-miss");
        return false;
    }

    std::error_code ec;
    const fs::path path = entryPath(dir, key);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        ++g_misses;
        engine::traceInstant("cache-miss");
        return false;
    }
    const std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());

    // The trailer must match the digest of everything before it, so a
    // flipped bit in a counter reads as corruption, never as a result.
    const std::size_t body = bytes.size() >= 8 ? bytes.size() - 8 : 0;
    serial::Reader trailer(bytes.data() + body, bytes.size() - body);
    serial::Reader r(bytes.data(), body);
    if (bytes.size() < 8 ||
        trailer.u64() != entryDigest(bytes.data(), body) ||
        r.u32() != kCacheMagic || r.u32() != kResultCacheVersion ||
        r.str() != key || !decodeOutcome(r, out) || !r.atEnd()) {
        // Corrupt or stale: drop the entry so the refreshed store
        // below it replaces a known-bad file, then report a miss.
        fs::remove(path, ec);
        ++g_errors;
        ++g_misses;
        engine::traceInstant("cache-miss");
        return false;
    }
    ++g_hits;
    engine::traceInstant("cache-hit");
    return true;
}

bool
resultCacheStore(const std::string &key, const SimOutcome &outcome)
{
    const std::string dir = resultCacheDir();
    if (dir.empty())
        return false;
    // Metered outcomes carry observer-harvested payloads the binary
    // format deliberately excludes; caching them would return a
    // stripped record on the next lookup.
    if (outcome.metrics != nullptr)
        return false;

    serial::Writer w;
    w.u32(kCacheMagic);
    w.u32(kResultCacheVersion);
    w.str(key);
    encodeOutcome(w, outcome);
    w.u64(entryDigest(w.buffer().data(), w.buffer().size()));

    std::error_code ec;
    const fs::path path = entryPath(dir, key);
    fs::create_directories(path.parent_path(), ec);
    if (ec) {
        ++g_errors;
        return false;
    }
    // Temp names carry the pid so concurrent sweeps in separate
    // processes can race on one key; rename makes the winner atomic.
    const fs::path tmp =
        path.parent_path() /
        (key.substr(2) + ".tmp" + std::to_string(::getpid()) + "." +
         std::to_string(g_tmpSeq.fetch_add(1)));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out ||
            !out.write(
                reinterpret_cast<const char *>(w.buffer().data()),
                static_cast<std::streamsize>(w.buffer().size()))) {
            ++g_errors;
            fs::remove(tmp, ec);
            return false;
        }
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        ++g_errors;
        fs::remove(tmp, ec);
        return false;
    }
    ++g_stores;
    return true;
}

ResultCacheStats
resultCacheStats()
{
    ResultCacheStats s;
    s.hits = g_hits.load();
    s.misses = g_misses.load();
    s.stores = g_stores.load();
    s.errors = g_errors.load();
    return s;
}

void
resetResultCacheStats()
{
    g_hits = 0;
    g_misses = 0;
    g_stores = 0;
    g_errors = 0;
}

} // namespace sim
} // namespace ff
