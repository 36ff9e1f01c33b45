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
    FetchedGroup g;
    g.leader = _pc;
    g.end = _prog.groupEnd(_pc);

    const Addr fetch_addr = isa::Program::instAddr(_pc);
    const memory::AccessResult icache = _mem.access(
        memory::AccessKind::kInstFetch, _who, fetch_addr, now);
    const unsigned l1i_lat = _mem.config().l1i.latency;
    const unsigned extra =
        icache.latency > l1i_lat ? icache.latency - l1i_lat : 0;
    g.readyAt = now + _cfg.frontEndDepth + extra;
    _stats.icacheMissCycles += extra;

    // Decode-time branch handling: branches are group-final.
    const isa::Decoded &last = _prog.decoded(g.end - 1);
    if (last.isBranch()) {
        g.hasBranch = true;
        g.prediction = _pred.predict(isa::Program::instAddr(g.end - 1));
        g.predictedTaken = g.prediction.taken;
        g.predictedNext =
            g.predictedTaken
                ? static_cast<InstIdx>(_prog.insts()[g.end - 1].imm)
                : g.end;
    } else {
        g.predictedNext = g.end;
    }

    _queue.push_back(g);
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
        _queue.push_back(g);
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
