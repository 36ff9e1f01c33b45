#include "cpu/core/telemetry_observer.hh"

#include <algorithm>

#include "cpu/cpu.hh"

namespace ff
{
namespace cpu
{

namespace
{

/** Unit-width buckets over [0, cap], bounded to keep exports small. */
std::size_t
bucketsFor(unsigned cap)
{
    return std::min<std::size_t>(cap + 1, 256);
}

} // namespace

TelemetryObserver::TelemetryObserver(const CpuModel &core,
                                     unsigned cq_capacity,
                                     unsigned max_loads,
                                     Cycle epoch_cycles)
    : _core(core),
      _epoch(epoch_cycles),
      _cqDepth(_reg.histogram("cq_depth", 0, cq_capacity + 1,
                              bucketsFor(cq_capacity))),
      _inFlight(_reg.histogram("inflight_loads", 0, max_loads + 1,
                               bucketsFor(max_loads))),
      _feedback(_reg.histogram("pending_feedback", 0, 129, 129)),
      _cqSeries(_reg.series("cq_depth", epoch_cycles)),
      _loadSeries(_reg.series("inflight_loads", epoch_cycles)),
      _feedbackSeries(_reg.series("pending_feedback", epoch_cycles)),
      _stallSeries(_reg.series("stall_fraction", epoch_cycles)),
      _cycles(_reg.counter("cycles")),
      _stallCycles(_reg.counter("stall_cycles")),
      _defers(_reg.counter("defers")),
      _flushes(_reg.counter("flushes"))
{
}

void
TelemetryObserver::onCycle(Cycle now, CycleClass cls)
{
    const OccupancySample s = _core.occupancy(now);
    _cqDepth.sample(s.cqDepth);
    _inFlight.sample(s.inFlightLoads);
    _feedback.sample(s.pendingFeedback);
    _cqSeries.sample(now, s.cqDepth);
    _loadSeries.sample(now, s.inFlightLoads);
    _feedbackSeries.sample(now, s.pendingFeedback);

    const bool stalled = cls != CycleClass::kUnstalled;
    _stallSeries.sample(now, stalled ? 1.0 : 0.0);
    ++_cycles;
    if (stalled)
        ++_stallCycles;
}

void
TelemetryObserver::onDefer(Cycle now, InstIdx idx, DynId id,
                           DeferReason reason)
{
    (void)now;
    (void)idx;
    (void)id;
    (void)reason;
    ++_defers;
}

void
TelemetryObserver::onFlush(Cycle now, FlushKind kind, InstIdx target)
{
    (void)now;
    (void)kind;
    (void)target;
    ++_flushes;
}

} // namespace cpu
} // namespace ff
