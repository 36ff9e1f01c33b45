/**
 * @file
 * The shared processor front end (IPG/ROT/EXP/DEC of Figure 3): it
 * fetches one issue group per cycle through the L1I, predicts branch
 * directions with gshare, and presents decoded groups to the issue
 * logic after a configurable pipeline depth. Redirects (misprediction
 * or flush recovery) empty the queue and suspend fetch until the
 * resume cycle, which is how misprediction penalties manifest.
 */

#ifndef FF_CPU_FRONTEND_HH
#define FF_CPU_FRONTEND_HH

#include <algorithm>

#include "branch/predictor.hh"
#include "common/ring.hh"
#include "common/serialize.hh"
#include "cpu/config.hh"
#include "isa/program.hh"
#include "memory/hierarchy.hh"

namespace ff
{
namespace cpu
{

/** A fetched, decoded, branch-predicted issue group. */
struct FetchedGroup
{
    InstIdx leader;  ///< static index of the group's first slot
    InstIdx end;     ///< one past the group's last slot
    Cycle readyAt;   ///< cycle the group reaches the issue point
    bool hasBranch = false;      ///< the group ends in a branch
    bool predictedTaken = false; ///< that branch's predicted direction
    InstIdx predictedNext; ///< leader the front end fetches next
    branch::Prediction prediction{}; ///< for resolve-time training
};

/** Front-end statistics. */
struct FrontEndStats
{
    std::uint64_t groupsFetched = 0;    ///< groups pushed into the queue
    std::uint64_t icacheMissCycles = 0; ///< readiness delay from L1I misses
    std::uint64_t redirects = 0;        ///< redirect() calls

    /** Zeroes every counter. */
    void reset() { *this = FrontEndStats(); }
};

/** Decoupled fetch unit feeding one or two back-end pipes. */
class FrontEnd
{
  public:
    /**
     * Builds a front end fetching @p prog from its first instruction,
     * through @p mem's L1I, predicting with @p pred and tagging its
     * fetches @p who. Every reference must outlive it.
     */
    FrontEnd(const isa::Program &prog, const CoreConfig &cfg,
             branch::DirectionPredictor &pred, memory::Hierarchy &mem,
             memory::Initiator who);

    /** Restarts fetch at @p entry with an empty queue. */
    void reset(InstIdx entry);

    /**
     * Fetches up to one group; call once per cycle (a cycle before
     * nextEvent() may be skipped, since the call would do nothing).
     */
    void tick(Cycle now);

    /**
     * The first cycle, from @p now on, at which tick() can fetch or
     * headReady() can change: @p now when fetch would go ahead (PC
     * valid, not redirecting, queue not full), else the earlier of the
     * redirect's resume cycle and the head group's readyAt, whichever
     * is still ahead, else kNeverCycle. Only pop() and redirect() can
     * change anything sooner.
     */
    Cycle
    nextEvent(Cycle now) const
    {
        Cycle next = kNeverCycle;
        if (now < _resumeAt)
            next = _resumeAt;
        else if (_pcValid && _queue.size() < _cfg.fetchQueueGroups)
            return now;
        if (!_queue.empty() && _queue.front().readyAt > now)
            next = std::min(next, _queue.front().readyAt);
        return next;
    }

    /** True if no fetched group is waiting. */
    bool empty() const { return _queue.empty(); }

    /** True if the oldest fetched group is available for issue. */
    bool
    headReady(Cycle now) const
    {
        return !_queue.empty() && _queue.front().readyAt <= now;
    }

    /** The oldest fetched group; the queue must not be empty. */
    const FetchedGroup &head() const { return _queue.front(); }
    /**
     * Consumes the oldest fetched group. Its ring slot is not written
     * again before the next tick(), so a head() reference taken before
     * stays readable across pop() and redirect() until then.
     */
    void pop() { _queue.pop_front(); }

    /**
     * Squashes all fetched groups and restarts fetch at @p target
     * from cycle @p resume_at (redirect latency models the resolve-
     * to-fetch distance plus any repair penalty).
     */
    void redirect(InstIdx target, Cycle resume_at);

    /** True if fetch has stopped at a halt or past the program end. */
    bool fetchStopped() const { return !_pcValid; }

    /** True if fetch is suspended recovering from a redirect. */
    bool redirecting(Cycle now) const { return now < _resumeAt; }

    /** The fetch counters. */
    const FrontEndStats &stats() const { return _stats; }

    /** The initiator this core's fetches, loads and stores are tagged
     *  with. */
    memory::Initiator initiator() const { return _who; }

    /** Snapshot hook: queue, fetch PC, resume cycle and stats. */
    void save(serial::Writer &w) const;
    /** Exact inverse of save() on a front end of the same program. */
    void restore(serial::Reader &r);

  private:
    const isa::Program &_prog;
    const CoreConfig &_cfg;
    branch::DirectionPredictor &_pred;
    memory::Hierarchy &_mem;
    memory::Initiator _who;

    Ring<FetchedGroup> _queue; ///< at most cfg.fetchQueueGroups
    InstIdx _pc = 0;
    bool _pcValid = true;
    Cycle _resumeAt = 0;

    FrontEndStats _stats;
};

} // namespace cpu
} // namespace ff

#endif // FF_CPU_FRONTEND_HH
