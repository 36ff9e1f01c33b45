#include "cpu/twopass/apipe.hh"

#include "cpu/exec.hh"

namespace ff
{
namespace cpu
{

using isa::Instruction;

bool
APipe::anticipableStall(const FetchedGroup &g, Cycle now) const
{
    const AFile &af = _ctx.ms.afile;
    auto anticipable = [&](unsigned slot) {
        return af.valid(slot) && !af.readyBy(slot, now) &&
               af.kindOf(slot) == PendingKind::kNonLoad;
    };
    for (InstIdx i = g.leader; i < g.end; ++i) {
        const isa::Decoded &d = _ctx.prog.decoded(i);
        if (anticipable(d.qp) || anticipable(d.src1) ||
            anticipable(d.src2)) {
            return true;
        }
    }
    return false;
}

void
APipe::step(Cycle now)
{
    _hold = Hold::kIdle;
    if (_ctx.ms.aHalted || !_ctx.fe.headReady(now))
        return;
    if (_ctx.cfg.aPipeThrottlePercent != 0) {
        // Issue moderation: when run-ahead is mostly producing
        // deferred instructions, pre-execution has stopped paying for
        // the queue space it consumes -- pause and let the B-pipe
        // clear the backlog (Sec. 3.5's suggested investigation).
        // Both pausing branches leave the queue over a quarter full,
        // so the pause holds until the B-pipe pops.
        _hold = Hold::kThrottled;
        if (_throttled) {
            if (_ctx.ms.cq.size() * 4 <= _ctx.ms.cq.capacity()) {
                _throttled = false;
            } else {
                ++_ctx.stats.aStallThrottled;
                return;
            }
        } else if (_deferHistoryCount * 100 >=
                       _ctx.cfg.aPipeThrottlePercent * 64 &&
                   _ctx.ms.cq.size() * 2 > _ctx.ms.cq.capacity()) {
            _throttled = true;
            ++_ctx.stats.aStallThrottled;
            return;
        }
    }
    // Read in place: the group stays in its ring slot through the pop
    // and any A-DET redirect below (FrontEnd::pop()).
    const FetchedGroup &g = _ctx.fe.head();
    if (_ctx.ms.cq.freeSlots() <
        static_cast<std::size_t>(g.end - g.leader)) {
        _hold = Hold::kCqFull;
        ++_ctx.stats.aStallCqFull;
        return;
    }
    // An anticipable-latency hold ends by itself when the producer's
    // result arrives, so it is not held.
    _hold = Hold::kNone;
    if (_ctx.cfg.aPipeStallsOnAnticipable && anticipableStall(g, now)) {
        ++_ctx.stats.aStallAnticipable;
        return;
    }
    _ctx.fe.pop(); // before any A-DET redirect clears the fetch queue
    dispatchGroup(g, now);
}

void
APipe::dispatchGroup(const FetchedGroup &g, Cycle now)
{
    AFile &af = _ctx.ms.afile;
    for (InstIdx i = g.leader; i < g.end; ++i) {
        const Instruction &in = _ctx.prog.insts()[i];
        const isa::Decoded &d = _ctx.prog.decoded(i);
        const DynId id = _ctx.ms.nextId++;
        ++_ctx.stats.dispatched;
        if (_ctx.ms.observer != nullptr)
            _ctx.ms.observer->onDispatch(now, i, id);

        // ---- operand availability in the A-file ---------------------
        // Hardwired and unused sources read constant slots, which are
        // always valid and ready.
        DeferReason reason = DeferReason::kNone;
        auto check = [&](unsigned slot) {
            if (reason != DeferReason::kNone)
                return;
            if (!af.valid(slot))
                reason = DeferReason::kOperandInvalid;
            else if (!af.readyBy(slot, now))
                reason = DeferReason::kOperandInFlight;
        };
        check(d.qp);
        bool qp = false;
        if (reason == DeferReason::kNone) {
            qp = af.read(d.qp) != 0;
            if (qp || d.isBranch()) {
                check(d.src1);
                check(d.src2);
            }
        }

        // ---- structural availability ---------------------------------
        if (reason == DeferReason::kNone && !_ctx.cfg.aPipeHasFpUnits &&
            d.isFp()) {
            // Partial replication (Sec. 3.7): no FP units in the
            // A-pipe; the B-pipe keeps the complete set.
            reason = DeferReason::kNoFunctionalUnit;
        }
        if (reason == DeferReason::kNone && d.isLoad() &&
            _ctx.ms.conflictRetryContains(i)) {
            // Fallback after this load's conflict flush; lifted once
            // the machine makes retirement progress.
            reason = DeferReason::kConflictRetry;
        }
        if (reason == DeferReason::kNone && qp && d.isLoad() &&
            !_ctx.hier.loadSlotAvailable(now)) {
            reason = DeferReason::kMshrFull;
        }
        if (reason == DeferReason::kNone && qp && d.isStore() &&
            _ctx.sbuf.full()) {
            reason = DeferReason::kStoreBufferFull;
        }

        // Track the recent deferral rate for the issue throttle.
        const bool is_deferred = reason != DeferReason::kNone;
        _deferHistoryCount += (is_deferred ? 1 : 0);
        _deferHistoryCount -= (_deferHistory >> 63) & 1;
        _deferHistory = (_deferHistory << 1) | (is_deferred ? 1 : 0);

        // The slot's CRS payload, gathered in locals and pushed below
        // with every CqEntry field named: a default-constructed entry
        // would cost a block zero-fill per slot.
        Cycle ready_at = 0;
        bool writes_dst = false;
        bool writes_dst2 = false;
        RegVal dst_val = 0;
        RegVal dst2_val = 0;
        Addr addr = 0;
        unsigned size = 0;

        if (is_deferred) {
            // ---- defer to the B-pipe --------------------------------
            ++_ctx.stats.deferred;
            ++_ctx.stats
                  .deferredByReason[static_cast<unsigned>(reason)];
            for (unsigned k = 0; k < d.numDsts; ++k)
                af.markDeferred(d.dst[k], id);
            if (_ctx.ms.observer != nullptr)
                _ctx.ms.observer->onDefer(now, i, id, reason);
        } else {
            // ---- pre-execute in the A-pipe --------------------------
            ready_at = now;
            ++_ctx.stats.preExecuted;
            if (d.isBranch()) {
                // The direction is known: resolve the prediction at
                // A-DET.
                ++_ctx.stats.branchesResolvedInA;
                _ctx.pred.update(g.prediction, qp);
                if (qp != g.predictedTaken) {
                    ++_ctx.stats.aDetMispredicts;
                    const InstIdx target =
                        qp ? static_cast<InstIdx>(in.imm) : g.end;
                    _ctx.fe.redirect(
                        target, now + 1 + _ctx.cfg.branchResolveDelay);
                }
            } else if (d.isHalt()) {
                _ctx.ms.aHalted = true;
            } else if (qp) { // a nullified slot completes with no effects
                const EvalResult ev =
                    evaluate(in, qp, af.read(d.src1),
                             operandSrc2(in, af.read(d.src2)));

                if (d.isLoad()) {
                    ++_ctx.stats.loadsInA;
                    if (_ctx.ms.cq.deferredStores() > 0)
                        ++_ctx.stats.loadsPastDeferredStore;
                    bool forwarded = false;
                    const std::uint64_t raw = _ctx.sbuf.read(
                        id, ev.addr, ev.size, _ctx.mem, &forwarded);
                    if (forwarded)
                        ++_ctx.stats.storeForwardings;
                    _ctx.alat.allocate(id, ev.addr, ev.size);
                    const memory::AccessResult ar = _ctx.hier.access(
                        memory::AccessKind::kLoad,
                        memory::Initiator::kApipe, ev.addr, now);
                    writes_dst = true;
                    dst_val = loadExtend(in.op, raw);
                    ready_at = now + ar.latency;
                    addr = ev.addr;
                    size = ev.size;
                    af.writeExecuted(d.dst[0], dst_val, id, ready_at,
                                     PendingKind::kLoad);
                } else if (d.isStore()) {
                    ++_ctx.stats.storesInA;
                    _ctx.sbuf.insert(id, ev.addr, ev.size, ev.storeVal);
                    _ctx.hier.access(memory::AccessKind::kStore,
                                     memory::Initiator::kApipe, ev.addr,
                                     now);
                    addr = ev.addr;
                    size = ev.size;
                } else {
                    ready_at = now + d.latency;
                    writes_dst = ev.writesDst;
                    writes_dst2 = ev.writesDst2;
                    dst_val = ev.dstVal;
                    dst2_val = ev.dst2Val;
                    if (ev.writesDst) {
                        af.writeExecuted(d.dst[0], ev.dstVal, id,
                                         ready_at, PendingKind::kNonLoad);
                    }
                    if (ev.writesDst2) {
                        af.writeExecuted(d.dst[1], ev.dst2Val, id,
                                         ready_at, PendingKind::kNonLoad);
                    }
                }
            }
        }

        const bool is_branch = d.isBranch();
        _ctx.ms.cq.push({
            .idx = i,
            .id = id,
            .enqueuedAt = now,
            .status = is_deferred ? CqStatus::kDeferred
                                  : CqStatus::kPreExecuted,
            .reason = reason,
            .groupEnd = i + 1 == g.end,
            .predTrue = !is_deferred && qp,
            .writesDst = writes_dst,
            .writesDst2 = writes_dst2,
            .dstVal = dst_val,
            .dst2Val = dst2_val,
            .readyAt = ready_at,
            .isLoad = d.isLoad(),
            .isStore = d.isStore(),
            .addr = addr,
            .size = size,
            .isBranch = is_branch,
            .branchResolvedInA = is_branch && !is_deferred,
            .actualTaken = is_branch && !is_deferred && qp,
            .predictedTaken = is_branch && g.predictedTaken,
            .fallthrough = is_branch ? g.end : 0,
            .prediction = g.prediction, // kept for branch entries only
        });
    }
}

} // namespace cpu
} // namespace ff
