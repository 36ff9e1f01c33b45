#include "cpu/twopass/bpipe.hh"

#include "cpu/exec.hh"
#include "cpu/scoreboard.hh"

namespace ff
{
namespace cpu
{

using isa::Instruction;

CycleClass
BPipe::prescanWindow(const RetireWindow &w, Cycle now, Cycle *until) const
{
    const CouplingQueue &cq = _ctx.ms.cq;
    const Scoreboard &sb = _ctx.ms.sb;
    auto verdict = [until](CycleClass cls, Cycle holds_until) {
        if (until != nullptr)
            *until = holds_until;
        return cls;
    };
    unsigned deferred_loads = 0;
    for (std::size_t k = 0; k < w.entries; ++k) {
        if (cq.preExecuted(k)) {
            if (cq.readyAt(k) > now) {
                // A "dangling dependence": the result was started in
                // the A-pipe but has not arrived (Sec. 3.1).
                return verdict(cq.isLoad(k) ? CycleClass::kLoadStall
                                            : CycleClass::kNonLoadDepStall,
                               cq.readyAt(k));
            }
            continue;
        }
        // Deferred: operand readiness against B-pipe producers. The
        // nullification shortcut uses the current predicate value;
        // in-window pre-executed producers may still flip it at apply
        // time, a deliberate (conservatively safe) simplification.
        const isa::Decoded &d = _ctx.prog.decoded(cq.idx(k));
        auto blocked_on = [&](unsigned slot) {
            return verdict(stallClassFor(sb, slot), sb.readyAt(slot));
        };
        if (!sb.ready(d.qp, now))
            return blocked_on(d.qp);
        const bool qp = _ctx.ms.regs.read(d.qp) != 0;
        if (qp || d.isBranch()) {
            if (!sb.ready(d.src1, now))
                return blocked_on(d.src1);
            if (!sb.ready(d.src2, now))
                return blocked_on(d.src2);
        }
        if (cq.isLoad(k) && qp)
            ++deferred_loads;
    }
    if (deferred_loads > 0 && _ctx.hier.outstandingLoads(now) > 0 &&
        _ctx.hier.outstandingLoads(now) + deferred_loads >
            _ctx.cfg.mem.maxOutstandingLoads) {
        // Stalling only helps while an outstanding load could retire
        // and free an MSHR; a group carrying more loads than the
        // machine has MSHRs must still issue eventually. A-pipe loads
        // change the count, so this verdict is never held.
        return verdict(CycleClass::kResourceStall, now);
    }
    return verdict(CycleClass::kUnstalled, now);
}

CycleClass
BPipe::step(Cycle now, RunResult &res)
{
    CouplingQueue &cq = _ctx.ms.cq;
    if (cq.empty()) {
        // Distinguish "the A-pipe has work but has not delivered it"
        // (the paper's A-pipe stall: A must stay a cycle ahead) from
        // a genuinely starved front end.
        if (_ctx.fe.headReady(now))
            return CycleClass::kApipeStall;
        return CycleClass::kFrontEndStall;
    }
    ff_panic_if(cq.enqueuedAt(0) >= now,
                "B-pipe observed a same-cycle A-pipe dispatch");
    if (now < _stallUntil)
        return _stallClass;

    RetireWindow w = headGroupWindow(cq);
    const CycleClass cls = prescanWindow(w, now, &_stallUntil);
    if (cls != CycleClass::kUnstalled) {
        _stallClass = cls;
        return cls;
    }

    if (_ctx.cfg.regroup) {
        // Fuse follow-on groups whose every entry could retire right
        // now: pre-execution made their leading stop bits
        // superfluous.
        auto entry_ready = [&](std::size_t k) {
            if (cq.preExecuted(k))
                return cq.readyAt(k) <= now;
            const isa::Decoded &d = _ctx.prog.decoded(cq.idx(k));
            if (!_ctx.ms.sb.ready(d.qp, now))
                return false;
            const bool qp = _ctx.ms.regs.read(d.qp) != 0;
            if ((qp || d.isBranch()) &&
                (!_ctx.ms.sb.ready(d.src1, now) ||
                 !_ctx.ms.sb.ready(d.src2, now))) {
                return false;
            }
            if (cq.isLoad(k) && qp && !_ctx.hier.loadSlotAvailable(now))
                return false;
            return true;
        };
        w = extendRetireWindow(cq, _ctx.prog, _ctx.cfg.limits, now, w,
                               entry_ready);
    }

    // Merge-time ALAT checks (Sec. 3.4). Only reached when the whole
    // window is otherwise ready; a missing entry is a store conflict.
    for (std::size_t k = 0; k < w.entries; ++k) {
        if (cq.preExecuted(k) && cq.isLoad(k) && cq.predTrue(k) &&
            !_ctx.alat.check(cq.id(k))) {
            ++_ctx.stats.storeConflictFlushes;
            conflictFlush(cq.entry(k), now);
            return CycleClass::kFrontEndStall;
        }
    }

    applyWindow(w, now, res);
    return CycleClass::kUnstalled;
}

void
BPipe::applyWindow(const RetireWindow &w, Cycle now, RunResult &res)
{
    CouplingQueue &cq = _ctx.ms.cq;
    _ctx.stats.regroupedGroups += w.groups - 1;
    const InstIdx leader = cq.idx(0);

    RegFile &regs = _ctx.ms.regs;
    std::size_t applied = 0;
    for (std::size_t k = 0; k < w.entries; ++k) {
        const InstIdx idx = cq.idx(k);
        const isa::Decoded &d = _ctx.prog.decoded(idx);
        const DynId id = cq.id(k);
        ++res.instsRetired;
        ++applied;
        if (cq.groupEnd(k))
            ++res.groupsRetired;

        if (d.isHalt()) {
            res.halted = true;
            break;
        }

        if (cq.preExecuted(k)) {
            // ---- merge (MRG stage) ----------------------------------
            if (cq.predTrue(k) && !cq.isBranch(k)) {
                if (cq.isStore(k))
                    _ctx.sbuf.commitOldest(id, _ctx.mem);
                if (cq.isLoad(k))
                    _ctx.alat.remove(id);
                if (cq.writesDst(k))
                    regs.write(d.dst[0], cq.dstVal(k));
                if (cq.writesDst2(k))
                    regs.write(d.dst[1], cq.dst2Val(k));
            }
            // Mark the A-file copy of these values architectural.
            for (unsigned j = 0; j < d.numDsts; ++j)
                _ctx.ms.afile.commitMatch(d.dst[j], id);
            continue;
        }

        // ---- first execution of a deferred instruction --------------
        if (_ctx.ms.observer != nullptr)
            _ctx.ms.observer->onReplay(now, idx, id);
        const Instruction &in = _ctx.prog.insts()[idx];
        EvalResult ev = evaluate(in, regs.read(d.qp) != 0,
                                 regs.read(d.src1),
                                 operandSrc2(in, regs.read(d.src2)));

        if (ev.isBranch) {
            ++_ctx.stats.branchesResolvedInB;
            _ctx.pred.update(cq.prediction(k), ev.taken);
            if (ev.taken != cq.predictedTaken(k)) {
                ++_ctx.stats.bDetMispredicts;
                // Retire everything up to and including the branch,
                // then flush the wrong path (Sec. 3.6).
                bDetFlush(cq.entry(k), ev.taken, now);
                for (std::size_t p = 0; p < applied; ++p)
                    cq.pop();
                cq.clear(); // everything remaining is younger
                if (_ctx.ms.observer != nullptr) {
                    _ctx.ms.observer->onGroupRetire(
                        now, leader, static_cast<unsigned>(applied));
                }
                return;
            }
            _feedback.schedule(d, id, now);
            continue;
        }

        if (ev.predTrue) {
            if (ev.isMemAccess) {
                if (d.isLoad()) {
                    ++_ctx.stats.loadsInB;
                    const memory::AccessResult ar = _ctx.hier.access(
                        memory::AccessKind::kLoad,
                        memory::Initiator::kBpipe, ev.addr, now);
                    ev.dstVal = loadExtend(
                        in.op, _ctx.mem.read(ev.addr, ev.size));
                    regs.write(d.dst[0], ev.dstVal);
                    _ctx.ms.sb.setPending(d.dst[0], now + ar.latency,
                                          PendingKind::kLoad);
                } else {
                    ++_ctx.stats.storesInB;
                    _ctx.mem.write(ev.addr, ev.storeVal, ev.size);
                    // Deferred stores kill matching ALAT entries: any
                    // younger pre-executed load that read this address
                    // will fail its merge-time check (Sec. 3.4).
                    _ctx.alat.invalidateOverlap(ev.addr, ev.size);
                    _ctx.hier.access(memory::AccessKind::kStore,
                                     memory::Initiator::kBpipe,
                                     ev.addr, now);
                }
            } else {
                const unsigned lat = d.latency;
                if (ev.writesDst) {
                    regs.write(d.dst[0], ev.dstVal);
                    if (lat > 1) {
                        _ctx.ms.sb.setPending(d.dst[0], now + lat,
                                              PendingKind::kNonLoad);
                    }
                }
                if (ev.writesDst2) {
                    regs.write(d.dst[1], ev.dst2Val);
                    if (lat > 1) {
                        _ctx.ms.sb.setPending(d.dst[1], now + lat,
                                              PendingKind::kNonLoad);
                    }
                }
            }
        }
        _feedback.schedule(d, id, now);
    }

    for (std::size_t p = 0; p < applied; ++p)
        cq.pop();
    // Retirement progress: the conflicted window is past; lift the
    // non-speculative fallback.
    _ctx.ms.conflictRetryClear();
    if (_ctx.ms.observer != nullptr) {
        _ctx.ms.observer->onGroupRetire(
            now, leader, static_cast<unsigned>(applied));
    }
}

// --------------------------------------------------------------------
// Flush routines (Secs. 3.4, 3.6).
// --------------------------------------------------------------------

void
BPipe::bDetFlush(const CqEntry &branch, bool taken, Cycle now)
{
    const Instruction &in = _ctx.prog.inst(branch.idx);
    const InstIdx target =
        taken ? static_cast<InstIdx>(in.imm) : branch.fallthrough;

    _ctx.sbuf.squashYoungerThan(branch.id);
    _ctx.alat.squashYoungerThan(branch.id);
    _feedback.squashYoungerThan(branch.id);

    _ctx.stats.registersRepaired +=
        _ctx.ms.afile.repairFromArch(_ctx.ms.regs);
    _ctx.fe.redirect(target, now + 1 + _ctx.cfg.branchResolveDelay +
                                 _ctx.cfg.bFlushRepairPenalty);
    _ctx.ms.aHalted = false;
    if (_ctx.ms.observer != nullptr)
        _ctx.ms.observer->onFlush(now, FlushKind::kBDet, target);
}

void
BPipe::conflictFlush(const CqEntry &offender, Cycle now)
{
    // Forward progress: the offending load executes in the B-pipe on
    // its retries instead of speculating again.
    _ctx.ms.conflictRetryInsert(offender.idx);
    // Nothing from the head window has been applied; restart the
    // whole speculative machine at the head group's leader. (The
    // paper resumes at the offending load; restarting at its group
    // boundary is slightly coarser and strictly safe.)
    const InstIdx leader = _ctx.prog.groupStart(_ctx.ms.cq.idx(0));
    _ctx.ms.cq.clear();
    _ctx.sbuf.clear();
    _ctx.alat.clear();
    _feedback.clear();
    _ctx.stats.registersRepaired +=
        _ctx.ms.afile.repairFromArch(_ctx.ms.regs);
    _ctx.fe.redirect(leader, now + 1 + _ctx.cfg.branchResolveDelay +
                                 _ctx.cfg.bFlushRepairPenalty);
    _ctx.ms.aHalted = false;
    if (_ctx.ms.observer != nullptr) {
        _ctx.ms.observer->onFlush(now, FlushKind::kConflict, leader);
    }
}

} // namespace cpu
} // namespace ff
