#include "cpu/twopass/twopass_cpu.hh"

#include <algorithm>

#include "common/logging.hh"

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
    _stats.cqDepthSum += _ms.cq.size();
    ++_stats.cqDepthSamples;
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
        _stats.cqDepthSum += _ms.cq.size() * skipped;
        _stats.cqDepthSamples += skipped;
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
}

void
TwoPassCpu::restoreModelState(serial::Reader &r)
{
    _ms.afile.restore(r);
    _ms.regs.restore(r);
    _ms.sb.restore(r);
    _ms.cq.restore(r);
    for (std::size_t k = 0; k < _ms.cq.size(); ++k) {
        // The B-pipe reads a queued entry's decoded slot unchecked.
        if (_ms.cq.idx(k) >= _prog.size())
            r.fail();
    }
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
}

} // namespace cpu
} // namespace ff
