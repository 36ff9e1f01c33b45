#include "cpu/baseline/baseline_cpu.hh"

#include <vector>

#include "cpu/exec.hh"
#include "cpu/issue_check.hh"
#include "cpu/stats_report.hh"

namespace ff
{
namespace cpu
{

using isa::Instruction;

BaselineCpu::BaselineCpu(const isa::Program &prog,
                         const CoreConfig &cfg, bool load_image)
    : CoreBase(prog, cfg, memory::Initiator::kBaseline, load_image)
{
}

CycleClass
BaselineCpu::tryIssue(Cycle now, RunResult &res)
{
    if (!_fe.headReady(now))
        return CycleClass::kFrontEndStall;

    const FetchedGroup &g = _fe.head();
    const InstIdx leader = g.leader;
    const InstIdx end = g.end;

    // ---- dependence + resource check (REG stage): whole-group stall
    const CycleClass stall = checkGroupIssue(
        _prog, leader, end, _ms.sb, _ms.regs, _hier, _cfg, now);
    if (stall != CycleClass::kUnstalled)
        return stall;

    // ---- execute: snapshot reads, apply in slot order --------------
    // The group issues now: consume it from the front end before
    // executing, so a mispredict redirect (which clears the fetch
    // queue) does not race with the head pop.
    const FetchedGroup group = g;
    _fe.pop();

    struct SlotOperands
    {
        bool qpred;
        RegVal s1;
        RegVal s2;
    };
    std::vector<SlotOperands> ops(end - leader);
    for (InstIdx i = leader; i < end; ++i) {
        const Instruction &in = _prog.inst(i);
        SlotOperands &o = ops[i - leader];
        o.qpred = _ms.regs.readPred(in.qpred);
        o.s1 = in.src1.valid() ? _ms.regs.read(in.src1) : 0;
        o.s2 = operandSrc2(
            in, in.src2.valid() ? _ms.regs.read(in.src2) : 0);
    }

    for (InstIdx i = leader; i < end; ++i) {
        const Instruction &in = _prog.inst(i);
        const SlotOperands &o = ops[i - leader];
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
                                 memory::Initiator::kBaseline, ev.addr,
                                 now);
                ev.dstVal = loadExtend(in.op, _mem.read(ev.addr,
                                                        ev.size));
                _ms.regs.write(in.dst, ev.dstVal);
                _ms.sb.setPending(in.dst, now + ar.latency,
                                  PendingKind::kLoad);
                continue;
            }
            ++_stats.storesIssued;
            _mem.write(ev.addr, ev.storeVal, ev.size);
            _hier.access(memory::AccessKind::kStore,
                         memory::Initiator::kBaseline, ev.addr, now);
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
    notifyGroupRetire(now, leader, static_cast<unsigned>(end - leader));
    return CycleClass::kUnstalled;
}

std::string
BaselineCpu::statsReport() const
{
    return commonStatsReport(_acct, _pred->stats(),
                             _hier.accessStats()) +
           statLines("baseline",
                     {{"loads_issued", _stats.loadsIssued},
                      {"stores_issued", _stats.storesIssued},
                      {"branches_retired", _stats.branchesRetired},
                      {"mispredicts", _stats.mispredicts}});
}

void
BaselineCpu::saveModelState(serial::Writer &w) const
{
    _ms.regs.save(w);
    _ms.sb.save(w);
    w.u64(_stats.loadsIssued);
    w.u64(_stats.storesIssued);
    w.u64(_stats.branchesRetired);
    w.u64(_stats.mispredicts);
}

void
BaselineCpu::restoreModelState(serial::Reader &r)
{
    _ms.regs.restore(r);
    _ms.sb.restore(r);
    _stats.loadsIssued = r.u64();
    _stats.storesIssued = r.u64();
    _stats.branchesRetired = r.u64();
    _stats.mispredicts = r.u64();
}

} // namespace cpu
} // namespace ff
