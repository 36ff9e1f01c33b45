/**
 * @file
 * The latency-configurable B-to-A feedback path of Section 3.5:
 * committed B-pipe results flow back to the A-file after
 * cfg.feedbackLatency cycles, each update accepted only if the
 * A-file register's outstanding invalidation (or write) was by the
 * same dynamic instruction — the DynID gate that keeps stale
 * feedback from clobbering younger speculative values.
 */

#ifndef FF_CPU_TWOPASS_FEEDBACK_HH
#define FF_CPU_TWOPASS_FEEDBACK_HH

#include "common/ring.hh"
#include "cpu/config.hh"
#include "cpu/model_stats.hh"
#include "cpu/state/machine_state.hh"
#include "cpu/twopass/afile.hh"
#include "isa/program.hh"

namespace ff
{
namespace cpu
{

/** Deferred B-file-to-A-file update queue. */
class FeedbackPath
{
  public:
    /**
     * @param ms the machine state whose A-file receives updates and
     *        whose architectural B-file values are read at schedule
     *        time (retirement order makes this exact); also carries
     *        the observer attachment for onFeedbackApply events
     */
    FeedbackPath(const CoreConfig &cfg, MachineState &ms,
                 TwoPassStats &stats)
        : _cfg(cfg), _ms(ms), _stats(stats)
    {
    }

    /**
     * Queues one update per destination of @p d, carrying the
     * architectural value as of this retirement: for a nullified
     * instruction that is the (unchanged) older value, which
     * correctly revalidates the conservatively-cleared V bit.
     * No-op when cfg.feedbackEnabled is off (Figure 8's "inf").
     */
    void
    schedule(const isa::Decoded &d, DynId id, Cycle now)
    {
        if (!_cfg.feedbackEnabled)
            return;
        for (unsigned k = 0; k < d.numDsts; ++k) {
            _q.emplace_back(d.dst[k], _ms.regs.read(d.dst[k]), id,
                            now + _cfg.feedbackLatency);
        }
    }

    /** Applies every update due by @p now, oldest first. */
    void apply(Cycle now);

    /** B-DET flush: drops updates younger than the branch. */
    void squashYoungerThan(DynId boundary);

    /** Conflict flush: drops everything in flight. */
    void clear() { _q.clear(); }

    bool empty() const { return _q.empty(); }
    std::size_t size() const { return _q.size(); }

    /**
     * The oldest pending update's apply cycle, or kNeverCycle:
     * apply() does nothing before it.
     */
    Cycle
    nextEvent() const
    {
        return _q.empty() ? kNeverCycle : _q.front().applyAt;
    }

    /**
     * Snapshot hooks: the pending update queue, oldest first, each
     * update naming its register by class and index.
     */
    void
    save(serial::Writer &w) const
    {
        w.u64(_q.size());
        for (std::size_t i = 0; i < _q.size(); ++i) {
            const Pending &p = _q[i];
            const isa::RegId reg = slotReg(p.slot);
            w.u8(static_cast<std::uint8_t>(reg.cls));
            w.u8(reg.idx);
            w.u64(p.value);
            w.u64(p.id);
            w.u64(p.applyAt);
        }
    }

    /**
     * Exact inverse of save(); fails the reader on an update to a
     * register no instruction can write.
     */
    void
    restore(serial::Reader &r)
    {
        _q.clear();
        const std::size_t n = r.seq(26);
        for (std::size_t i = 0; i < n; ++i) {
            isa::RegId reg;
            reg.cls = static_cast<isa::RegClass>(r.u8());
            reg.idx = r.u8();
            if (!reg.valid() || isa::hardwired(reg) ||
                !isa::regInRange(reg)) {
                r.fail();
                return;
            }
            Pending p;
            p.slot = static_cast<unsigned>(regSlot(reg));
            p.value = r.u64();
            p.id = r.u64();
            p.applyAt = r.u64();
            _q.emplace_back(p);
        }
    }

  private:
    /** One pending B-to-A update. */
    struct Pending
    {
        unsigned slot; ///< the destination's register slot
        RegVal value;
        DynId id;
        Cycle applyAt;
    };

    const CoreConfig &_cfg;
    MachineState &_ms;
    TwoPassStats &_stats;
    /** Oldest first; grows to the most updates ever in flight. */
    Ring<Pending> _q;
};

} // namespace cpu
} // namespace ff

#endif // FF_CPU_TWOPASS_FEEDBACK_HH
