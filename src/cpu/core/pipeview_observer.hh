/**
 * @file
 * PipeViewObserver: the pipeline-lifecycle tracer behind the ffpipe
 * format and the ffview tool. It records one compact event per
 * observer hook firing — dispatch, defer, replay, feedback apply,
 * flush, group retire — plus run-length-encoded cycle-class changes,
 * so a whole two-pass run can be reconstructed into per-dynamic-
 * instruction timelines (the gem5 O3PipeView / Konata record shape)
 * after the fact. The observer itself only appends to a vector: it
 * never touches simulation state, never looks at the program, and is
 * bounded by an event cap with an explicit dropped-event counter so
 * a pathological run cannot exhaust memory silently.
 */

#ifndef FF_CPU_CORE_PIPEVIEW_OBSERVER_HH
#define FF_CPU_CORE_PIPEVIEW_OBSERVER_HH

#include <cstdint>
#include <vector>

#include "cpu/core/observer.hh"

namespace ff
{
namespace cpu
{

/** Discriminator of one recorded pipeline event. */
enum class PipeEventKind : std::uint8_t
{
    kDispatch = 0,   ///< A-pipe dispatch into the coupling queue
    kDefer = 1,      ///< dispatch deferred; a = DeferReason
    kReplay = 2,     ///< B-pipe first execution of a deferred entry
    kFeedback = 3,   ///< B-to-A feedback landed; b = register slot
    kFlush = 4,      ///< pipeline flush; idx = target, a = FlushKind
    kRetire = 5,     ///< group retire; idx = leader, b = slot count
    kCycleClass = 6, ///< cycle-class run starts; a = CycleClass
};
inline constexpr unsigned kNumPipeEventKinds = 7;

const char *pipeEventKindName(PipeEventKind k);

/**
 * One recorded event, 24 bytes. The @c a and @c b payload fields are
 * kind-dependent (see PipeEventKind); @c id is 0 for events that do
 * not belong to a single dynamic instruction (flush, retire,
 * cycle-class).
 */
struct PipeEvent
{
    Cycle cycle = 0;       ///< when the event fired
    DynId id = 0;          ///< dynamic instruction, or 0
    InstIdx idx = 0;       ///< static index / flush target / leader
    PipeEventKind kind = PipeEventKind::kDispatch;
    std::uint8_t a = 0;    ///< DeferReason / FlushKind / CycleClass
    std::uint16_t b = 0;   ///< register slot / retired slot count
};

/**
 * Appends one PipeEvent per observer hook firing, with cycle classes
 * run-length encoded (an event only when the class changes). All
 * state is private to the observer; the purity suite pins that
 * attaching one leaves every simulation output bit-identical.
 */
class PipeViewObserver final : public CoreObserver
{
  public:
    /** Default event cap: ~4M events, ~96 MB, minutes of trace. */
    static constexpr std::size_t kDefaultMaxEvents = 1u << 22;

    /** @param max_events cap on recorded events; later events are
     *  counted in dropped() instead of recorded. */
    explicit PipeViewObserver(std::size_t max_events = kDefaultMaxEvents)
        : _max(max_events)
    {
    }

    void onCycle(Cycle now, CycleClass cls) override;
    void onGroupRetire(Cycle now, InstIdx leader,
                       unsigned slots) override;
    void onDefer(Cycle now, InstIdx idx, DynId id,
                 DeferReason reason) override;
    void onFlush(Cycle now, FlushKind kind, InstIdx target) override;
    void onDispatch(Cycle now, InstIdx idx, DynId id) override;
    void onReplay(Cycle now, InstIdx idx, DynId id) override;
    void onFeedbackApply(Cycle now, DynId id,
                         unsigned regSlot) override;

    /** Recorded events in firing order. */
    const std::vector<PipeEvent> &events() const { return _events; }

    /** Events discarded after the cap was reached. */
    std::uint64_t dropped() const { return _dropped; }

    /** Moves the event stream out, leaving the observer empty. */
    std::vector<PipeEvent> take() { return std::move(_events); }

  private:
    void
    push(const PipeEvent &e)
    {
        if (_events.size() >= _max) {
            ++_dropped;
            return;
        }
        _events.push_back(e);
    }

    std::vector<PipeEvent> _events;
    std::uint64_t _dropped = 0;
    std::size_t _max;
    CycleClass _lastCls = CycleClass::kUnstalled;
    bool _haveCls = false;
};

} // namespace cpu
} // namespace ff

#endif // FF_CPU_CORE_PIPEVIEW_OBSERVER_HH
