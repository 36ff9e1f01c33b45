#include "cpu/frontend.hh"

#include "common/logging.hh"

namespace ff
{
namespace cpu
{

FrontEnd::FrontEnd(const isa::Program &prog, const CoreConfig &cfg,
                   branch::DirectionPredictor &pred,
                   memory::Hierarchy &mem, memory::Initiator who)
    : _prog(prog), _cfg(cfg), _pred(pred), _mem(mem), _who(who),
      _queue(cfg.fetchQueueGroups)
{
    reset(0);
}

void
FrontEnd::reset(InstIdx entry)
{
    _queue.clear();
    _pc = entry;
    _pcValid = entry < _prog.size();
    _resumeAt = 0;
}

void
FrontEnd::tick(Cycle now)
{
    if (!_pcValid || now < _resumeAt)
        return;
    if (_queue.size() >= _cfg.fetchQueueGroups)
        return;

    // The one bounds check of the group: every stage downstream reads
    // the decoded table of [leader, end) unchecked.
    const InstIdx end = _prog.groupEnd(_pc);

    const Addr fetch_addr = isa::Program::instAddr(_pc);
    const memory::AccessResult icache = _mem.access(
        memory::AccessKind::kInstFetch, _who, fetch_addr, now);
    const unsigned l1i_lat = _mem.config().l1i.latency;
    const unsigned extra =
        icache.latency > l1i_lat ? icache.latency - l1i_lat : 0;
    _stats.icacheMissCycles += extra;

    // The group is built in its ring slot, and a branch's prediction
    // is written there by the predictor: copying in a record just
    // filled on the stack stalls the host's loads on the pending
    // stores. Decode-time branch handling: branches are group-final.
    const isa::Decoded &last = _prog.decoded(end - 1);
    FetchedGroup &g =
        _queue.emplace_back(_pc, end, now + _cfg.frontEndDepth + extra,
                            last.isBranch(), false, end);
    if (g.hasBranch) {
        _pred.predictInto(isa::Program::instAddr(end - 1), g.prediction);
        if (g.prediction.taken) {
            g.predictedTaken = true;
            g.predictedNext =
                static_cast<InstIdx>(_prog.insts()[end - 1].imm);
        }
    }
    ++_stats.groupsFetched;

    if (last.groupHasHalt() || g.predictedNext >= _prog.size()) {
        // Stop at a halt or past the program end; a redirect (flush
        // recovery) restarts fetch if this was a wrong path.
        _pcValid = false;
    } else {
        _pc = g.predictedNext;
    }
}

void
FrontEnd::redirect(InstIdx target, Cycle resume_at)
{
    _queue.clear();
    _pc = target;
    _pcValid = target < _prog.size();
    _resumeAt = resume_at;
    ++_stats.redirects;
}

void
FrontEnd::save(serial::Writer &w) const
{
    w.u64(_queue.size());
    for (std::size_t i = 0; i < _queue.size(); ++i) {
        const FetchedGroup &g = _queue[i];
        w.u32(g.leader);
        w.u32(g.end);
        w.u64(g.readyAt);
        w.boolean(g.hasBranch);
        w.boolean(g.predictedTaken);
        w.u32(g.predictedNext);
        branch::savePrediction(w, g.prediction);
    }
    w.u32(_pc);
    w.boolean(_pcValid);
    w.u64(_resumeAt);
    w.u64(_stats.groupsFetched);
    w.u64(_stats.icacheMissCycles);
    w.u64(_stats.redirects);
}

void
FrontEnd::restore(serial::Reader &r)
{
    _queue.clear();
    const std::size_t n = r.seq(24);
    for (std::size_t i = 0; i < n; ++i) {
        FetchedGroup g;
        g.leader = r.u32();
        g.end = r.u32();
        if (g.leader >= _prog.size() || g.end != _prog.groupEnd(g.leader)) {
            // Not a group of this program: the stages read the
            // decoded table of a queued group unchecked.
            r.fail();
            return;
        }
        g.readyAt = r.u64();
        g.hasBranch = r.boolean();
        g.predictedTaken = r.boolean();
        g.predictedNext = r.u32();
        branch::restorePrediction(r, g.prediction);
        _queue.emplace_back(g);
    }
    _pc = r.u32();
    _pcValid = r.boolean();
    _resumeAt = r.u64();
    _stats.groupsFetched = r.u64();
    _stats.icacheMissCycles = r.u64();
    _stats.redirects = r.u64();
}

} // namespace cpu
} // namespace ff
