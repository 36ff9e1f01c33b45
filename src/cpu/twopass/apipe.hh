/**
 * @file
 * The advance pipeline (Sections 3.1–3.3): greedy, non-stalling
 * dispatch from the front end into the coupling queue. Instructions
 * with ready operands pre-execute against the A-file (loads start
 * their misses early, branches resolve at A-DET); instructions with
 * unready or invalid operands are deferred — their first execution
 * happens in the B-pipe — and their destinations are invalidated so
 * dependence successors defer too. Also owns the issue-moderation
 * throttle ring (Sec. 3.5 / future work).
 */

#ifndef FF_CPU_TWOPASS_APIPE_HH
#define FF_CPU_TWOPASS_APIPE_HH

#include "cpu/twopass/pipe_context.hh"

namespace ff
{
namespace cpu
{

/** The A-pipe dispatch stage unit. */
class APipe
{
  public:
    explicit APipe(const PipeContext &ctx) : _ctx(ctx) {}

    /**
     * Dispatches at most one issue group at @p now: pre-executing
     * ready slots into the coupling queue and deferring the rest.
     * Holds the group (and burns the cycle) when the queue lacks
     * room, the throttle is draining, or ablation A2 says an
     * anticipable in-flight latency is worth stalling for.
     */
    void step(Cycle now);

    /**
     * The cycle before which step() repeats its last verdict, while
     * the front end and the B-pipe stay quiet: kNeverCycle when the
     * last step held its group for a reason only they can lift (halted,
     * no ready head group, no queue room, the throttle draining), else
     * 0, a cycle already reached.
     */
    Cycle
    heldUntil() const
    {
        return _hold == Hold::kNone ? 0 : kNeverCycle;
    }

    /** Charges @p cycles repeats of the held verdict to its counter. */
    void
    repeatHold(std::uint64_t cycles)
    {
        if (_hold == Hold::kCqFull)
            _ctx.stats.aStallCqFull += cycles;
        else if (_hold == Hold::kThrottled)
            _ctx.stats.aStallThrottled += cycles;
    }

    /** Snapshot hooks: the issue-moderation throttle ring. */
    void
    save(serial::Writer &w) const
    {
        w.u64(_deferHistory);
        w.u32(_deferHistoryCount);
        w.boolean(_throttled);
    }

    void
    restore(serial::Reader &r)
    {
        _deferHistory = r.u64();
        _deferHistoryCount = r.u32();
        _throttled = r.boolean();
    }

  private:
    /** True when ablation A2 says the A-pipe should hold this group. */
    bool anticipableStall(const FetchedGroup &g, Cycle now) const;
    void dispatchGroup(const FetchedGroup &g, Cycle now);

    PipeContext _ctx;

    /** Why the last step() dispatched nothing, if it is held. */
    enum class Hold : std::uint8_t
    {
        kNone,      ///< dispatched, or a verdict that can change alone
        kIdle,      ///< halted or no ready head group; counts nothing
        kCqFull,    ///< counts aStallCqFull
        kThrottled, ///< counts aStallThrottled
    };
    Hold _hold = Hold::kNone;

    // ---- A-pipe issue moderation (Sec. 3.5 / future work) ----------
    /** Ring of the last 64 dispatch outcomes (1 = deferred). */
    std::uint64_t _deferHistory = 0;
    unsigned _deferHistoryCount = 0; ///< deferred bits in the ring
    bool _throttled = false;         ///< dispatch paused, draining
};

} // namespace cpu
} // namespace ff

#endif // FF_CPU_TWOPASS_APIPE_HH
