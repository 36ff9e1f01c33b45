/**
 * @file
 * The CoreObserver hook seam: a zero-cost (one null-pointer test per
 * event site) way for tooling to watch a timed core execute without
 * the core knowing who is listening. CpuModel owns the attachment
 * point; models and their stage units fire the hooks at the
 * architecturally meaningful moments. It is the one event path out
 * of a core: sim::MetricsSession is the observer a metered run
 * attaches, and it calls its profile, telemetry and pipeview clients
 * directly; further observability plugs in here without touching
 * model code.
 */

#ifndef FF_CPU_CORE_OBSERVER_HH
#define FF_CPU_CORE_OBSERVER_HH

#include "common/types.hh"
#include "cpu/cycle_classes.hh"
#include "cpu/model_stats.hh"

namespace ff
{
namespace cpu
{

/** Which flush recovery a two-pass core performed. */
enum class FlushKind : std::uint8_t
{
    kBDet,     ///< deferred-branch misprediction flush (Sec. 3.6)
    kConflict, ///< store-conflict (ALAT) flush (Sec. 3.4)
};
inline constexpr unsigned kNumFlushKinds = 2;

const char *flushKindName(FlushKind k);

/** One read-only occupancy snapshot of a core's pipeline structures. */
struct OccupancySample
{
    unsigned cqDepth = 0;         ///< coupling-queue entries (two-pass)
    unsigned inFlightLoads = 0;   ///< loads outstanding past the L1
    unsigned pendingFeedback = 0; ///< queued B-to-A updates (two-pass)
};

/**
 * Observation interface over a running core. All hooks default to
 * no-ops so observers implement only what they need. Hooks must not
 * mutate simulation state: the contract is strictly read-only
 * observation, and the bit-identical-stats guarantee of the bench
 * gate depends on it.
 */
class CoreObserver
{
  public:
    virtual ~CoreObserver() = default;

    /** Fired once per simulated cycle with its Figure-6 class. */
    virtual void
    onCycle(Cycle now, CycleClass cls)
    {
        (void)now;
        (void)cls;
    }

    /**
     * Fired when the architectural pipe retires an issue group (or a
     * regrouped retire window): @p leader is the static index of the
     * first retired slot, @p slots the number of slots retired.
     */
    virtual void
    onGroupRetire(Cycle now, InstIdx leader, unsigned slots)
    {
        (void)now;
        (void)leader;
        (void)slots;
    }

    /** Fired when the A-pipe defers instruction @p idx to the B-pipe. */
    virtual void
    onDefer(Cycle now, InstIdx idx, DynId id, DeferReason reason)
    {
        (void)now;
        (void)idx;
        (void)id;
        (void)reason;
    }

    /** Fired on a B-pipe flush; @p target is the refetch leader. */
    virtual void
    onFlush(Cycle now, FlushKind kind, InstIdx target)
    {
        (void)now;
        (void)kind;
        (void)target;
    }

    /**
     * Fired when the A-pipe dispatches a dynamic instruction into the
     * coupling queue, before its defer/pre-execute outcome is known
     * (an onDefer for the same @p id follows in the same cycle when
     * it defers). The first event in every dynamic lifetime.
     */
    virtual void
    onDispatch(Cycle now, InstIdx idx, DynId id)
    {
        (void)now;
        (void)idx;
        (void)id;
    }

    /**
     * Fired when the B-pipe first-executes (replays) a deferred
     * instruction at the head of the coupling queue.
     */
    virtual void
    onReplay(Cycle now, InstIdx idx, DynId id)
    {
        (void)now;
        (void)idx;
        (void)id;
    }

    /**
     * Fired when a B-to-A feedback update from dynamic instruction
     * @p id lands in the A-file; @p regSlot is the dense register
     * slot (regSlot()) the update revalidated.
     */
    virtual void
    onFeedbackApply(Cycle now, DynId id, unsigned regSlot)
    {
        (void)now;
        (void)id;
        (void)regSlot;
    }
};

} // namespace cpu
} // namespace ff

#endif // FF_CPU_CORE_OBSERVER_HH
