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
    bool hasBranch = false;
    bool predictedTaken = false;
    InstIdx predictedNext; ///< leader the front end fetches next
    branch::Prediction prediction{}; ///< for resolve-time training
};

/** Front-end statistics. */
struct FrontEndStats
{
    std::uint64_t groupsFetched = 0;
    std::uint64_t icacheMissCycles = 0;
    std::uint64_t redirects = 0;

    void reset() { *this = FrontEndStats(); }
};

/** Decoupled fetch unit feeding one or two back-end pipes. */
class FrontEnd
{
  public:
    FrontEnd(const isa::Program &prog, const CoreConfig &cfg,
             branch::DirectionPredictor &pred, memory::Hierarchy &mem,
             memory::Initiator who);

    /** Restarts fetch at @p entry with an empty queue. */
    void reset(InstIdx entry);

    /** Fetches up to one group; call once per cycle. */
    void tick(Cycle now);

    bool empty() const { return _queue.empty(); }

    /** True if the oldest fetched group is available for issue. */
    bool
    headReady(Cycle now) const
    {
        return !_queue.empty() && _queue.front().readyAt <= now;
    }

    const FetchedGroup &head() const { return _queue.front(); }
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

    const FrontEndStats &stats() const { return _stats; }

    /** The initiator this core's fetches, loads and stores are tagged
     *  with. */
    memory::Initiator initiator() const { return _who; }

    /** Snapshot hooks: queue, fetch PC, resume cycle and stats. */
    void save(serial::Writer &w) const;
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
