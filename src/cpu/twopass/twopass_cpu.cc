#include "cpu/twopass/twopass_cpu.hh"

#include <algorithm>

#include "common/logging.hh"
#include "cpu/stats_report.hh"

namespace ff
{
namespace cpu
{

TwoPassCpu::TwoPassCpu(const isa::Program &prog, const CoreConfig &cfg)
    : CpuModel(prog, cfg, memory::Initiator::kApipe),
      _sbuf(cfg.storeBufferSize),
      _alat(cfg.alatCapacity),
      _ctx{_prog, _cfg, _fe, *_pred, _hier, _mem, _ms, _sbuf, _alat,
           _stats},
      _feedback(_cfg, _ms, _stats),
      _apipe(_ctx),
      _bpipe(_ctx, _feedback)
{
    // A queue narrower than the widest legal issue group could never
    // accept a full-width dispatch: the A-pipe would starve forever.
    ff_fatal_if(cfg.couplingQueueSize < cfg.limits.issueWidth,
                "coupling queue (", cfg.couplingQueueSize,
                ") must hold at least one full issue group (",
                cfg.limits.issueWidth, ")");
}

CycleClass
TwoPassCpu::tick(Cycle now, RunResult &res)
{
    _feedback.apply(now);
    const CycleClass cls = _bpipe.step(now, res);
    if (!res.halted)
        _apipe.step(now);
    _cqDepthSum += _ms.cq.size();
    ++_cqDepthSamples;
    if (_cfg.selfCheckInterval != 0 &&
        now % _cfg.selfCheckInterval == 0) {
        checkAFileCoherence(now);
    }
    return cls;
}

Cycle
TwoPassCpu::skipQuiet(Cycle now, Cycle limit)
{
    Cycle until = std::min({limit, _bpipe.heldUntil(), _apipe.heldUntil(),
                            _feedback.nextEvent()});
    if (_cfg.selfCheckInterval != 0) {
        const Cycle every = _cfg.selfCheckInterval;
        until = std::min(until, (now / every + 1) * every);
    }
    if (until > now + 1) {
        const std::uint64_t skipped = until - now - 1;
        _apipe.repeatHold(skipped);
        _cqDepthSum += _ms.cq.size() * skipped;
        _cqDepthSamples += skipped;
    }
    return until;
}

void
TwoPassCpu::checkAFileCoherence(Cycle now) const
{
    // The coupling queue must hold strictly increasing dynamic ids
    // (program order), and the store buffer likewise.
    for (std::size_t k = 1; k < _ms.cq.size(); ++k) {
        ff_panic_if(_ms.cq.id(k - 1) >= _ms.cq.id(k),
                    "coupling queue out of program order at cycle ",
                    now);
    }
    for (unsigned slot = 0; slot < kNumRegSlots; ++slot) {
        const isa::RegId r = slotReg(slot);
        if (r.idx == 0)
            continue;
        if (!_ms.afile.valid(r) || _ms.afile.speculative(r))
            continue;
        ff_panic_if(_ms.afile.read(r) != _ms.regs.read(r),
                    "A-file coherence violation at cycle ", now, ": ",
                    isa::regName(r), " A=", _ms.afile.read(r),
                    " B=", _ms.regs.read(r));
    }
}

std::string
TwoPassCpu::statsReport() const
{
    std::map<std::string, std::uint64_t> g = {
        {"dispatched", _stats.dispatched},
        {"pre_executed", _stats.preExecuted},
        {"deferred", _stats.deferred},
        {"loads_in_a", _stats.loadsInA},
        {"loads_in_b", _stats.loadsInB},
        {"stores_in_a", _stats.storesInA},
        {"stores_in_b", _stats.storesInB},
        {"loads_past_deferred_store", _stats.loadsPastDeferredStore},
        {"store_conflict_flushes", _stats.storeConflictFlushes},
        {"store_forwardings", _stats.storeForwardings},
        {"branches_resolved_a", _stats.branchesResolvedInA},
        {"branches_resolved_b", _stats.branchesResolvedInB},
        {"adet_mispredicts", _stats.aDetMispredicts},
        {"bdet_mispredicts", _stats.bDetMispredicts},
        {"a_stall_cq_full", _stats.aStallCqFull},
        {"a_stall_anticipable", _stats.aStallAnticipable},
        {"a_stall_throttled", _stats.aStallThrottled},
        {"regrouped_groups", _stats.regroupedGroups},
        {"feedback_applied", _stats.feedbackApplied},
        {"feedback_dropped", _stats.feedbackDropped},
        {"registers_repaired", _stats.registersRepaired},
    };
    for (unsigned r = 1; r < kNumDeferReasons; ++r) {
        g[std::string("deferred.") +
          deferReasonName(static_cast<DeferReason>(r))] =
            _stats.deferredByReason[r];
    }

    const memory::AlatStats &a = _alat.stats();
    const double mean_depth =
        _cqDepthSamples == 0
            ? 0.0
            : static_cast<double>(_cqDepthSum) /
                  static_cast<double>(_cqDepthSamples);

    return commonStatsReport(_acct, _pred->stats(),
                             _hier.accessStats()) +
           statLines("twopass", g) +
           statLines("alat",
                     {{"allocations", a.allocations},
                      {"store_invalidations", a.storeInvalidations},
                      {"capacity_evictions", a.capacityEvictions},
                      {"checks_passed", a.checksPassed},
                      {"checks_failed", a.checksFailed}}) +
           statLines("cq",
                     {{"mean_depth_x1000",
                       static_cast<std::uint64_t>(mean_depth * 1000.0)},
                      {"samples", _cqDepthSamples}});
}

void
TwoPassCpu::saveModelState(serial::Writer &w) const
{
    _ms.afile.save(w);
    _ms.regs.save(w);
    _ms.sb.save(w);
    _ms.cq.save(w);
    _sbuf.save(w);
    _alat.save(w);

    w.u64(_ms.nextId);
    w.boolean(_ms.aHalted);
    // conflictRetry is a membership-only set, kept sorted — the
    // encoding is byte-stable as-is.
    w.u64(_ms.conflictRetry().size());
    for (const InstIdx idx : _ms.conflictRetry())
        w.u32(idx);

    saveStats(w, _stats);
    _feedback.save(w);
    _apipe.save(w);
    w.u64(_cqDepthSum);
    w.u64(_cqDepthSamples);
}

void
TwoPassCpu::restoreModelState(serial::Reader &r)
{
    _ms.afile.restore(r);
    _ms.regs.restore(r);
    _ms.sb.restore(r);
    _ms.cq.restore(r);
    _sbuf.restore(r);
    _alat.restore(r);

    _ms.nextId = r.u64();
    _ms.aHalted = r.boolean();
    _ms.conflictRetryClear();
    const std::size_t retry = r.seq(4);
    for (std::size_t i = 0; i < retry; ++i)
        _ms.conflictRetryInsert(r.u32());

    restoreStats(r, _stats);
    _feedback.restore(r);
    _apipe.restore(r);
    _bpipe.clearStallMemo();
    _cqDepthSum = r.u64();
    _cqDepthSamples = r.u64();
}

} // namespace cpu
} // namespace ff
