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
                const Instruction &in = _prog.inst(i);
                std::array<isa::RegId, 4> srcs;
                unsigned ns = in.sources(srcs);
                for (unsigned s = 0; s < ns; ++s) {
                    if (!_ms.sb.ready(srcs[s], now)) {
                        exit_at = std::max(exit_at,
                                           _ms.sb.readyAt(srcs[s]));
                    }
                }
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
        if (_ms.sb.readyAtSlot(slot) > now)
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

    auto inv = [&](isa::RegId r) {
        const int slot = regSlot(r);
        if (slot < 0 || r.idx == 0)
            return false;
        return _ms.raInv.test(slot) || !_ms.raSb.ready(r, now);
    };
    auto mark_inv = [&](isa::RegId r) {
        const int slot = regSlot(r);
        if (slot >= 0 && r.idx != 0) {
            _ms.raInv.set(slot);
            ++_raStats.invResults;
        }
    };
    auto mark_valid = [&](isa::RegId r, RegVal v) {
        const int slot = regSlot(r);
        if (slot >= 0 && r.idx != 0) {
            _ms.raInv.clear(slot);
            _ms.raRegs.write(r, v);
        }
    };

    for (InstIdx i = g.leader; i < g.end; ++i) {
        const Instruction &in = _prog.inst(i);
        ++_raStats.runaheadInsts;
        if (in.isHalt())
            return; // idle out the rest of the episode

        std::array<isa::RegId, 2> dsts;
        const unsigned nd = in.destinations(dsts);

        if (inv(in.qpred)) {
            for (unsigned d = 0; d < nd; ++d)
                mark_inv(dsts[d]);
            continue;
        }
        const bool qp = _ms.raRegs.readPred(in.qpred);

        if (in.isBranch()) {
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

        bool operands_inv = false;
        if (in.src1.valid() && inv(in.src1))
            operands_inv = true;
        if (in.src2.valid() && !in.src2IsImm && inv(in.src2))
            operands_inv = true;
        if (operands_inv) {
            for (unsigned d = 0; d < nd; ++d)
                mark_inv(dsts[d]);
            continue;
        }

        const RegVal s1 =
            in.src1.valid() ? _ms.raRegs.read(in.src1) : 0;
        const RegVal s2 = operandSrc2(
            in, in.src2.valid() ? _ms.raRegs.read(in.src2) : 0);
        EvalResult ev = evaluate(in, qp, s1, s2);

        if (ev.isMemAccess) {
            if (in.isLoad()) {
                if (!_hier.loadSlotAvailable(now)) {
                    mark_inv(in.dst);
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
                mark_valid(in.dst, loadExtend(in.op, raw));
                _ms.raSb.setPending(in.dst, now + ar.latency,
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
            mark_valid(in.dst, ev.dstVal);
        if (ev.writesDst2)
            mark_valid(in.dst2, ev.dst2Val);
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
