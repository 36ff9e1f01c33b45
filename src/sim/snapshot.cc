#include "sim/snapshot.hh"

#include <cstring>
#include <memory>

#include "common/engine_trace.hh"
#include "common/hash.hh"
#include "common/logging.hh"

namespace ff
{
namespace sim
{

namespace
{

/** Container magic: "FSNP" (flea-flicker snapshot). */
constexpr std::uint32_t kSnapshotMagic = serial::tag("FSNP");

} // namespace

void
canonicalizeConfig(const cpu::CoreConfig &cfg, serial::Writer &w)
{
    // Field order is frozen; append new fields at the end and bump
    // kSnapshotFormatVersion when the machine grows new knobs.
    w.u32(cfg.limits.issueWidth);
    w.u32(cfg.limits.aluUnits);
    w.u32(cfg.limits.memUnits);
    w.u32(cfg.limits.fpUnits);
    w.u32(cfg.limits.branchUnits);

    for (const memory::CacheGeometry *g :
         {&cfg.mem.l1i, &cfg.mem.l1d, &cfg.mem.l2, &cfg.mem.l3}) {
        w.u64(g->sizeBytes);
        w.u32(g->assoc);
        w.u32(g->lineBytes);
        w.u32(g->latency);
    }
    w.u32(cfg.mem.memoryLatency);
    w.u32(cfg.mem.maxOutstandingLoads);
    w.u32(cfg.mem.prefetchDegree);

    w.u32(cfg.predictorEntries);
    w.u32(static_cast<std::uint32_t>(cfg.predictorKind));
    w.u32(cfg.frontEndDepth);
    w.u32(cfg.fetchQueueGroups);
    w.u32(cfg.branchResolveDelay);

    w.u32(cfg.couplingQueueSize);
    w.u32(cfg.alatCapacity);
    w.u32(cfg.storeBufferSize);
    w.u32(cfg.feedbackLatency);
    w.boolean(cfg.feedbackEnabled);
    w.boolean(cfg.regroup);
    w.boolean(cfg.aPipeStallsOnAnticipable);
    w.boolean(cfg.aPipeHasFpUnits);
    w.u32(cfg.aPipeThrottlePercent);
    w.u32(cfg.bFlushRepairPenalty);
    w.boolean(cfg.wawStall);
    w.u32(cfg.selfCheckInterval);
    w.u32(cfg.runaheadEntryDelay);
}

std::uint64_t
canonicalConfigHash(const cpu::CoreConfig &cfg)
{
    serial::Writer w;
    canonicalizeConfig(cfg, w);
    Sha256 h;
    h.update(w.buffer().data(), w.buffer().size());
    return h.digest64();
}

Snapshot
saveSnapshot(const cpu::CpuModel &model, CpuKind kind,
             const isa::Program &prog, const cpu::CoreConfig &cfg)
{
    Snapshot snap;
    snap.kind = kind;
    snap.cycle = model.currentCycle();
    snap.programHash = prog.contentHash();
    snap.configHash = canonicalConfigHash(cfg);
    serial::Writer w;
    model.saveState(w);
    snap.state = w.take();
    return snap;
}

void
restoreSnapshot(cpu::CpuModel &model, const Snapshot &snap,
                CpuKind kind, const isa::Program &prog,
                const cpu::CoreConfig &cfg)
{
    ff_fatal_if(snap.kind != kind, "snapshot of model ",
                cpuKindName(snap.kind), " cannot restore a ",
                cpuKindName(kind), " model");
    ff_fatal_if(snap.programHash != prog.contentHash(),
                "snapshot belongs to a different program than '",
                prog.name(), "'");
    ff_fatal_if(snap.configHash != canonicalConfigHash(cfg),
                "snapshot belongs to a different machine "
                "configuration");
    serial::Reader r(snap.state);
    model.restoreState(r);
    ff_fatal_if(!r.ok(), "structurally corrupt snapshot for '",
                prog.name(), "' (", cpuKindName(kind), ", cycle ",
                snap.cycle, ")");
    ff_fatal_if(model.currentCycle() != snap.cycle,
                "snapshot restore desynchronized: header cycle ",
                snap.cycle, " vs model cycle ", model.currentCycle());
}

std::vector<std::uint8_t>
encodeSnapshot(const Snapshot &snap)
{
    serial::Writer w;
    w.u32(kSnapshotMagic);
    w.u32(kSnapshotFormatVersion);
    w.u8(static_cast<std::uint8_t>(snap.kind));
    w.u64(snap.cycle);
    w.u64(snap.programHash);
    w.u64(snap.configHash);
    w.u64(snap.state.size());
    w.bytes(snap.state.data(), snap.state.size());
    return w.take();
}

namespace
{

enum class DecodeError
{
    kNone,
    kBadMagic,
    kBadVersion,
    kMalformed, ///< truncated, trailing bytes, or bad kind
};

DecodeError
decodeSnapshotImpl(const std::vector<std::uint8_t> &bytes,
                   Snapshot &out, std::uint32_t &version)
{
    serial::Reader r(bytes);
    const std::uint32_t magic = r.u32();
    version = r.u32();
    if (!r.ok())
        return DecodeError::kMalformed;
    if (magic != kSnapshotMagic)
        return DecodeError::kBadMagic;
    if (version != kSnapshotFormatVersion)
        return DecodeError::kBadVersion;
    const std::uint8_t kind = r.u8();
    if (kind >= cpu::kNumCpuKinds)
        return DecodeError::kMalformed;
    out.kind = static_cast<CpuKind>(kind);
    out.cycle = r.u64();
    out.programHash = r.u64();
    out.configHash = r.u64();
    const std::size_t n = r.seq(1);
    out.state.resize(n);
    r.bytes(out.state.data(), n);
    return r.ok() && r.atEnd() ? DecodeError::kNone
                               : DecodeError::kMalformed;
}

} // namespace

bool
decodeSnapshot(const std::vector<std::uint8_t> &bytes, Snapshot &out)
{
    std::uint32_t version = 0;
    return decodeSnapshotImpl(bytes, out, version) ==
           DecodeError::kNone;
}

Snapshot
decodeSnapshotOrDie(const std::vector<std::uint8_t> &bytes)
{
    Snapshot out;
    std::uint32_t version = 0;
    const DecodeError err = decodeSnapshotImpl(bytes, out, version);
    ff_fatal_if(err == DecodeError::kBadVersion,
                "snapshot container has format version ", version,
                " but this build reads version ",
                kSnapshotFormatVersion,
                "; regenerate the snapshot (stale artifact?)");
    ff_fatal_if(err == DecodeError::kBadMagic,
                "not a snapshot container (bad magic)");
    ff_fatal_if(err != DecodeError::kNone,
                "snapshot container is truncated or corrupt");
    return out;
}

WarmupResult
runWarmup(const isa::Program &prog, CpuKind kind,
          const cpu::CoreConfig &cfg, std::uint64_t warmup_cycles,
          std::uint64_t max_cycles)
{
    engine::ScopedSpan span("warmup");
    verifyProgram(prog, cfg.limits);
    const std::unique_ptr<cpu::CpuModel> model =
        cpu::makeModel(kind, prog, cfg);

    WarmupResult res;
    const std::uint64_t budget =
        warmup_cycles < max_cycles ? warmup_cycles : max_cycles;
    const cpu::RunResult run = model->run(budget);
    if (run.halted || budget >= max_cycles) {
        // The whole run fit inside the warm-up prefix: report it as
        // a finished outcome (fatal on timeout, matching simulate()).
        ff_fatal_if(!run.halted, "model ", cpuKindName(kind),
                    " did not halt within ", max_cycles,
                    " cycles on '", prog.name(), "'");
        res.completed = true;
        res.outcome = collectOutcome(*model, kind, run);
        return res;
    }
    res.snap = saveSnapshot(*model, kind, prog, cfg);
    return res;
}

SimOutcome
resumeSnapshot(const isa::Program &prog, CpuKind kind,
               const cpu::CoreConfig &cfg, const Snapshot &snap,
               std::uint64_t max_cycles)
{
    engine::ScopedSpan span("fork-resume");
    // The budget is total simulated cycles (see header): resuming a
    // cycle-N snapshot under a budget <= N cannot advance the model
    // a single cycle and would misreport as a timeout below.
    ff_fatal_if(max_cycles <= snap.cycle,
                "resumeSnapshot() budget of ", max_cycles,
                " cycles does not reach past the snapshot's warm-up "
                "point (cycle ", snap.cycle,
                "); the budget counts total simulated cycles, not "
                "cycles after the fork");
    verifyProgram(prog, cfg.limits);
    const std::unique_ptr<cpu::CpuModel> model =
        cpu::makeModel(kind, prog, cfg);
    restoreSnapshot(*model, snap, kind, prog, cfg);

    const cpu::RunResult run = model->run(max_cycles);
    ff_fatal_if(!run.halted, "model ", cpuKindName(kind),
                " did not halt within ", max_cycles, " cycles on '",
                prog.name(), "' (resumed from cycle ", snap.cycle,
                ")");
    return collectOutcome(*model, kind, run);
}

} // namespace sim
} // namespace ff
