#include "cpu/baseline/baseline_cpu.hh"

#include "cpu/exec.hh"

namespace ff
{
namespace cpu
{

using isa::Instruction;

namespace
{

/**
 * The REG-stage dependence and resource check of the issue group
 * [@p leader, @p end): kUnstalled when the whole group may issue at
 * @p now, else the Figure-6 class of the first blocking hazard in slot
 * order. The group stalls atomically when any of its instructions'
 * operands are pending (Figure 2(a)), and conservatively when its
 * loads could overflow the MSHRs. On a stall, @p until receives the
 * cycle before which the verdict cannot change while nothing issues:
 * the blocking register's ready cycle (the operands before it were
 * ready and stay ready), or kNeverCycle for the MSHR check, which
 * only an MSHR release can change.
 */
CycleClass
checkGroupIssue(const isa::Program &prog, InstIdx leader, InstIdx end,
                const Scoreboard &sb, const RegFile &regs,
                const memory::Hierarchy &hier, const CoreConfig &cfg,
                Cycle now, Cycle &until)
{
    // Fast path: with no producer in flight anywhere, every ready()
    // query below is vacuously true and the MSHR bound cannot bind.
    if (sb.quiescentBy(now) && hier.outstandingLoads(now) == 0)
        return CycleClass::kUnstalled;

    auto blocked_on = [&](unsigned slot) {
        until = sb.readyAt(slot);
        return stallClassFor(sb, slot);
    };
    unsigned loads_wanted = 0;
    for (InstIdx i = leader; i < end; ++i) {
        const isa::Decoded &d = prog.decoded(i);
        if (!sb.ready(d.qp, now))
            return blocked_on(d.qp);
        const bool qp = regs.read(d.qp) != 0;
        if (!qp && !d.isBranch())
            continue; // nullified slot needs no operands
        if (!sb.ready(d.src1, now))
            return blocked_on(d.src1);
        if (!sb.ready(d.src2, now))
            return blocked_on(d.src2);
        if (cfg.wawStall) {
            for (unsigned k = 0; k < d.numDsts; ++k) {
                if (!sb.ready(d.dst[k], now))
                    return blocked_on(d.dst[k]);
            }
        }
        if (d.isLoad() && qp)
            ++loads_wanted;
    }

    // Resource check: conservatively assume every load misses.
    if (loads_wanted > 0 && hier.outstandingLoads(now) > 0 &&
        hier.outstandingLoads(now) + loads_wanted >
            cfg.mem.maxOutstandingLoads) {
        // Stalling only helps while an outstanding load could retire
        // and free an MSHR; a group carrying more loads than the
        // machine has MSHRs must still issue eventually.
        until = kNeverCycle;
        return CycleClass::kResourceStall;
    }
    return CycleClass::kUnstalled;
}

} // namespace

CycleClass
BaselineCpu::tryIssue(Cycle now, RunResult &res)
{
    if (!_fe.headReady(now)) {
        _heldUntil = kNeverCycle;
        return CycleClass::kFrontEndStall;
    }

    const FetchedGroup &g = _fe.head();
    const InstIdx leader = g.leader;
    const InstIdx end = g.end;

    // ---- dependence + resource check (REG stage): whole-group stall
    const CycleClass stall = checkGroupIssue(
        _prog, leader, end, _ms.sb, _ms.regs, _hier, _cfg, now,
        _heldUntil);
    if (stall != CycleClass::kUnstalled)
        return stall;

    // ---- execute: snapshot reads, apply in slot order --------------
    // The group issues now: consume it from the front end before
    // executing, so a mispredict redirect (which clears the fetch
    // queue) does not race with the head pop.
    const FetchedGroup group = g;
    _fe.pop();

    for (InstIdx i = leader; i < end; ++i) {
        const isa::Decoded &d = _prog.decoded(i);
        SlotOperands &o = _ops[i - leader];
        o.qpred = _ms.regs.read(d.qp) != 0;
        o.s1 = _ms.regs.read(d.src1);
        o.s2 = operandSrc2(_prog.insts()[i], _ms.regs.read(d.src2));
    }

    for (InstIdx i = leader; i < end; ++i) {
        const Instruction &in = _prog.insts()[i];
        const isa::Decoded &d = _prog.decoded(i);
        const SlotOperands &o = _ops[i - leader];
        ++res.instsRetired;

        if (d.isHalt()) {
            res.halted = true;
            break;
        }

        EvalResult ev = evaluate(in, o.qpred, o.s1, o.s2);

        if (ev.isBranch) {
            ++_stats.branchesRetired;
            _pred->update(group.prediction, ev.taken);
            if (ev.taken != group.predictedTaken) {
                ++_stats.mispredicts;
                const InstIdx target =
                    ev.taken ? static_cast<InstIdx>(in.imm) : end;
                _fe.redirect(target, now + 1 + _cfg.branchResolveDelay);
            }
            continue;
        }
        if (!ev.predTrue)
            continue;

        if (ev.isMemAccess) {
            if (d.isLoad()) {
                ++_stats.loadsIssued;
                const memory::AccessResult ar =
                    _hier.access(memory::AccessKind::kLoad,
                                 _fe.initiator(), ev.addr, now);
                ev.dstVal = loadExtend(in.op, _mem.read(ev.addr,
                                                        ev.size));
                _ms.regs.write(d.dst[0], ev.dstVal);
                _ms.sb.setPending(d.dst[0], now + ar.latency,
                                  PendingKind::kLoad);
                continue;
            }
            ++_stats.storesIssued;
            _mem.write(ev.addr, ev.storeVal, ev.size);
            _hier.access(memory::AccessKind::kStore, _fe.initiator(),
                         ev.addr, now);
            continue;
        }

        if (ev.writesDst) {
            _ms.regs.write(d.dst[0], ev.dstVal);
            if (d.latency > 1) {
                _ms.sb.setPending(d.dst[0], now + d.latency,
                                  PendingKind::kNonLoad);
            }
        }
        if (ev.writesDst2) {
            _ms.regs.write(d.dst[1], ev.dst2Val);
            if (d.latency > 1) {
                _ms.sb.setPending(d.dst[1], now + d.latency,
                                  PendingKind::kNonLoad);
            }
        }
    }

    ++res.groupsRetired;
    if (_ms.observer != nullptr) {
        _ms.observer->onGroupRetire(now, leader,
                                    static_cast<unsigned>(end - leader));
    }
    return CycleClass::kUnstalled;
}

void
BaselineCpu::saveModelState(serial::Writer &w) const
{
    _ms.regs.save(w);
    _ms.sb.save(w);
    saveStats(w, _stats);
}

void
BaselineCpu::restoreModelState(serial::Reader &r)
{
    _ms.regs.restore(r);
    _ms.sb.restore(r);
    restoreStats(r, _stats);
}

} // namespace cpu
} // namespace ff
