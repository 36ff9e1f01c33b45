#include "cpu/runahead/runahead_cpu.hh"

#include "cpu/exec.hh"

namespace ff
{
namespace cpu
{

using isa::Instruction;

CycleClass
RunaheadCpu::tick(Cycle now, RunResult &res)
{
    if (_inRunahead) {
        if (now >= _raExitAt) {
            // The refetch begins; this cycle is still a stall.
            exitRunahead(now);
        } else {
            runaheadStep(now);
        }
        return CycleClass::kLoadStall;
    }

    const CycleClass cls = tryIssue(now, res);
    if (cls == CycleClass::kLoadStall) {
        ++_stallStreak;
        if (_stallStreak > _cfg.runaheadEntryDelay) {
            // Find when the blocking producer completes.
            Cycle exit_at = now + 1;
            const FetchedGroup &g = _fe.head();
            for (InstIdx i = g.leader; i < g.end; ++i) {
                const isa::Decoded &d = _prog.decoded(i);
                for (const unsigned slot : {d.qp, d.src1, d.src2})
                    exit_at = std::max(exit_at, _ms.sb.readyAt(slot));
            }
            enterRunahead(now, exit_at);
            _stallStreak = 0;
        }
    } else {
        _stallStreak = 0;
    }
    return cls;
}

void
RunaheadCpu::enterRunahead(Cycle now, Cycle exit_at)
{
    ++_raStats.episodes;
    _inRunahead = true;
    _raExitAt = exit_at;
    _raResumePc = _fe.head().leader;
    // Checkpoint: only slots written since the last episode differ
    // between the two files; the merge-copy skips the rest.
    _ms.checkpointRegsToRa();
    _ms.raInv.clearAll();
    // The miss (and friends) are unknown: every slot still pending is
    // INV. The busy bitset is a superset of "pending now", filtered
    // by ready time.
    _ms.sb.forEachBusy([&](unsigned slot) {
        if (_ms.sb.readyAt(slot) > now)
            _ms.raInv.set(slot);
    });
    _ms.raSb.clear();
    _raStoreOverlay.clear();
}

void
RunaheadCpu::exitRunahead(Cycle now)
{
    _inRunahead = false;
    _raStoreOverlay.clear();
    // All run-ahead results are discarded; architectural state was
    // never modified. Refetch from the stalled group.
    _fe.redirect(_raResumePc, now + 1);
}

void
RunaheadCpu::runaheadStep(Cycle now)
{
    ++_raStats.runaheadCycles;
    if (!_fe.headReady(now))
        return;
    const FetchedGroup g = _fe.head();
    _fe.pop();

    // Constant slots are never INV or pending.
    auto inv = [&](unsigned slot) {
        return _ms.raInv.test(slot) || !_ms.raSb.ready(slot, now);
    };
    auto mark_inv = [&](unsigned slot) {
        _ms.raInv.set(slot);
        ++_raStats.invResults;
    };
    auto mark_valid = [&](unsigned slot, RegVal v) {
        _ms.raInv.clear(slot);
        _ms.raRegs.write(slot, v);
    };

    for (InstIdx i = g.leader; i < g.end; ++i) {
        const Instruction &in = _prog.insts()[i];
        const isa::Decoded &d = _prog.decoded(i);
        ++_raStats.runaheadInsts;
        if (d.isHalt())
            return; // idle out the rest of the episode

        if (inv(d.qp)) {
            for (unsigned k = 0; k < d.numDsts; ++k)
                mark_inv(d.dst[k]);
            continue;
        }
        const bool qp = _ms.raRegs.read(d.qp) != 0;

        if (d.isBranch()) {
            // Resolve locally when possible; never trains the real
            // predictor (results are discarded at exit).
            const bool taken = qp;
            if (taken != g.predictedTaken) {
                const InstIdx target =
                    taken ? static_cast<InstIdx>(in.imm) : g.end;
                _fe.redirect(target, now + 1 + _cfg.branchResolveDelay);
            }
            return; // branches are group-final
        }
        if (!qp)
            continue;

        if (inv(d.src1) || inv(d.src2)) {
            for (unsigned k = 0; k < d.numDsts; ++k)
                mark_inv(d.dst[k]);
            continue;
        }

        EvalResult ev =
            evaluate(in, qp, _ms.raRegs.read(d.src1),
                     operandSrc2(in, _ms.raRegs.read(d.src2)));

        if (ev.isMemAccess) {
            if (d.isLoad()) {
                if (!_hier.loadSlotAvailable(now)) {
                    mark_inv(d.dst[0]);
                    continue;
                }
                ++_raStats.runaheadLoads;
                const memory::AccessResult ar =
                    _hier.access(memory::AccessKind::kLoad,
                                 memory::Initiator::kRunahead, ev.addr,
                                 now);
                std::uint64_t raw = 0;
                for (unsigned b = 0; b < ev.size; ++b) {
                    auto it = _raStoreOverlay.find(ev.addr + b);
                    const std::uint8_t byte =
                        it != _raStoreOverlay.end()
                            ? it->second
                            : _mem.readByte(ev.addr + b);
                    raw |= static_cast<std::uint64_t>(byte) << (8 * b);
                }
                mark_valid(d.dst[0], loadExtend(in.op, raw));
                _ms.raSb.setPending(d.dst[0], now + ar.latency,
                                    PendingKind::kLoad);
            } else {
                for (unsigned b = 0; b < ev.size; ++b) {
                    _raStoreOverlay[ev.addr + b] =
                        static_cast<std::uint8_t>(ev.storeVal >> (8 * b));
                }
            }
            continue;
        }
        if (ev.writesDst)
            mark_valid(d.dst[0], ev.dstVal);
        if (ev.writesDst2)
            mark_valid(d.dst[1], ev.dst2Val);
    }
}

void
RunaheadCpu::saveModelState(serial::Writer &w) const
{
    BaselineCpu::saveModelState(w);
    saveStats(w, _raStats);

    w.boolean(_inRunahead);
    w.u64(_raExitAt);
    w.u32(_raResumePc);
    _ms.raRegs.save(w);
    // One boolean per slot: the packed INV bitset keeps the original
    // per-slot byte encoding on the wire.
    for (unsigned slot = 0; slot < kNumRegSlots; ++slot)
        w.boolean(_ms.raInv.test(slot));
    _ms.raSb.save(w);
    w.u64(_raStoreOverlay.size());
    for (const auto &[addr, byte] : _raStoreOverlay) {
        w.u64(addr);
        w.u8(byte);
    }
    w.u32(_stallStreak);
}

void
RunaheadCpu::restoreModelState(serial::Reader &r)
{
    BaselineCpu::restoreModelState(r);
    restoreStats(r, _raStats);

    _inRunahead = r.boolean();
    _raExitAt = r.u64();
    _raResumePc = r.u32();
    _ms.raRegs.restore(r);
    for (unsigned slot = 0; slot < kNumRegSlots; ++slot)
        _ms.raInv.assign(slot, r.boolean());
    _ms.raSb.restore(r);
    _raStoreOverlay.clear();
    const std::size_t overlay = r.seq(9);
    for (std::size_t i = 0; i < overlay; ++i) {
        const Addr addr = r.u64();
        _raStoreOverlay[addr] = r.u8();
    }
    _stallStreak = r.u32();
}

} // namespace cpu
} // namespace ff
