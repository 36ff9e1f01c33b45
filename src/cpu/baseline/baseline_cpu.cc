#include "cpu/baseline/baseline_cpu.hh"

#include <array>

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

    auto blocked_on = [&](isa::RegId r) {
        until = sb.readyAt(r);
        return stallClassFor(sb, r);
    };
    unsigned loads_wanted = 0;
    for (InstIdx i = leader; i < end; ++i) {
        const isa::Instruction &in = prog.inst(i);
        if (!sb.ready(in.qpred, now))
            return blocked_on(in.qpred);
        const bool qp = regs.readPred(in.qpred);
        if (!qp && !in.isBranch())
            continue; // nullified slot needs no operands
        if (in.src1.valid() && !sb.ready(in.src1, now))
            return blocked_on(in.src1);
        if (in.src2.valid() && !in.src2IsImm &&
            !sb.ready(in.src2, now)) {
            return blocked_on(in.src2);
        }
        if (cfg.wawStall) {
            std::array<isa::RegId, 2> dsts;
            const unsigned nd = in.destinations(dsts);
            for (unsigned d = 0; d < nd; ++d) {
                if (!sb.ready(dsts[d], now))
                    return blocked_on(dsts[d]);
            }
        }
        if (in.isLoad() && qp)
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
        const Instruction &in = _prog.inst(i);
        SlotOperands &o = _ops[i - leader];
        o.qpred = _ms.regs.readPred(in.qpred);
        o.s1 = in.src1.valid() ? _ms.regs.read(in.src1) : 0;
        o.s2 = operandSrc2(
            in, in.src2.valid() ? _ms.regs.read(in.src2) : 0);
    }

    for (InstIdx i = leader; i < end; ++i) {
        const Instruction &in = _prog.inst(i);
        const SlotOperands &o = _ops[i - leader];
        ++res.instsRetired;

        if (in.isHalt()) {
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
            if (in.isLoad()) {
                ++_stats.loadsIssued;
                const memory::AccessResult ar =
                    _hier.access(memory::AccessKind::kLoad,
                                 _fe.initiator(), ev.addr, now);
                ev.dstVal = loadExtend(in.op, _mem.read(ev.addr,
                                                        ev.size));
                _ms.regs.write(in.dst, ev.dstVal);
                _ms.sb.setPending(in.dst, now + ar.latency,
                                  PendingKind::kLoad);
                continue;
            }
            ++_stats.storesIssued;
            _mem.write(ev.addr, ev.storeVal, ev.size);
            _hier.access(memory::AccessKind::kStore, _fe.initiator(),
                         ev.addr, now);
            continue;
        }

        const unsigned lat = in.execLatency();
        if (ev.writesDst) {
            _ms.regs.write(in.dst, ev.dstVal);
            if (lat > 1) {
                _ms.sb.setPending(in.dst, now + lat,
                                  PendingKind::kNonLoad);
            }
        }
        if (ev.writesDst2) {
            _ms.regs.write(in.dst2, ev.dst2Val);
            if (lat > 1) {
                _ms.sb.setPending(in.dst2, now + lat,
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
