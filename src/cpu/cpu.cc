#include "cpu/cpu.hh"

#include "common/logging.hh"

namespace ff
{
namespace cpu
{

CpuModel::CpuModel(const isa::Program &prog, const CoreConfig &cfg,
                   memory::Initiator who)
    : _prog(prog),
      _cfg(cfg),
      _mem(prog.dataImage()),
      _hier(cfg.mem),
      _pred(branch::makePredictor(cfg.predictorKind,
                                  cfg.predictorEntries)),
      _fe(prog, _cfg, *_pred, _hier, who),
      _ms(_cfg)
{
    const std::string err = prog.validate(cfg.limits);
    ff_fatal_if(!err.empty(), "invalid program '", prog.name(), "': ",
                err);
}

void
CpuModel::saveState(serial::Writer &w) const
{
    w.section(serial::tag("CORE"));
    w.u64(_now);
    w.boolean(_ran);
    w.boolean(_res.halted);
    w.u64(_res.cycles);
    w.u64(_res.instsRetired);
    w.u64(_res.groupsRetired);
    for (const std::uint64_t c : _acct.counts)
        w.u64(c);

    w.section(serial::tag("SMEM"));
    _mem.save(w);
    w.section(serial::tag("HIER"));
    _hier.save(w);
    w.section(serial::tag("PRED"));
    _pred->save(w);
    w.section(serial::tag("FTCH"));
    _fe.save(w);
    w.section(serial::tag("MODL"));
    saveModelState(w);
    w.section(serial::tag("DONE"));
}

void
CpuModel::restoreState(serial::Reader &r)
{
    if (!r.section(serial::tag("CORE")))
        return;
    _now = r.u64();
    _ran = r.boolean();
    _res.halted = r.boolean();
    _res.cycles = r.u64();
    _res.instsRetired = r.u64();
    _res.groupsRetired = r.u64();
    for (std::uint64_t &c : _acct.counts)
        c = r.u64();

    if (!r.section(serial::tag("SMEM")))
        return;
    // Pages the run has not changed since the image re-share it.
    _mem.restore(r, &_prog.dataImage());
    if (!r.section(serial::tag("HIER")))
        return;
    _hier.restore(r);
    if (!r.section(serial::tag("PRED")))
        return;
    _pred->restore(r);
    if (!r.section(serial::tag("FTCH")))
        return;
    _fe.restore(r);
    if (!r.section(serial::tag("MODL")))
        return;
    restoreModelState(r);
    if (!r.section(serial::tag("DONE")))
        return;

    _resumable = true;
}

void
CpuModel::warpArchState(const RegFile &regs,
                        const memory::SparseMemory &mem, InstIdx entry)
{
    ff_panic_if(_ran, "warpArchState() on a model that already ran; "
                      "warping is construction-time only");
    ff_panic_if(entry >= _prog.size() ||
                    !_prog.isGroupLeader(entry),
                "warp entry ", entry, " is not an issue-group leader "
                "of '", _prog.name(), "'");
    _ms.regs = regs;
    _mem = mem;
    _fe.reset(entry);
    warpModelState();
}

void
CpuModel::warmMicroArch(const WarmSnapshot &warm)
{
    ff_panic_if(_ran, "warmMicroArch() on a model that already ran; "
                      "warming is construction-time only");
    // Code first, then data: the streams only interleave in the
    // shared L2/L3, where the (typically small) code footprint should
    // not displace the most recent data lines.
    for (const Addr a : warm.fetch)
        _hier.warmAccess(memory::AccessKind::kInstFetch, a);
    for (const WarmHistory::MemEvent &e : warm.mem) {
        _hier.warmAccess(e.store ? memory::AccessKind::kStore
                                 : memory::AccessKind::kLoad,
                         e.addr);
    }
    // predict() + update() is exactly one resolve-trained branch:
    // history shifts speculatively at predict and the counters (and
    // any misprediction repair) train at update.
    for (const WarmSnapshot::BranchEvent &e : warm.branch)
        _pred->update(_pred->predict(e.pc), e.taken);
}

OccupancySample
CpuModel::occupancy(Cycle now) const
{
    OccupancySample s;
    s.inFlightLoads = _hier.outstandingLoads(now);
    return s;
}

const char *
flushKindName(FlushKind k)
{
    switch (k) {
      case FlushKind::kBDet: return "bdet";
      case FlushKind::kConflict: return "conflict";
    }
    return "?";
}

} // namespace cpu
} // namespace ff
