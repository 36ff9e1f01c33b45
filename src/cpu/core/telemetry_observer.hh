/**
 * @file
 * TelemetryObserver: pipeline-occupancy sampling as a CoreObserver
 * client. Each cycle it reads the core's read-only occupancy()
 * (coupling-queue depth, loads outstanding past the L1, pending
 * B-to-A feedback updates) and folds the sample into histograms plus
 * fixed-rate per-epoch time series in a metrics::Registry, alongside
 * a per-epoch stall-fraction series derived from the cycle class.
 * The registry is owned by the observer and harvested after the run
 * by the export path.
 */

#ifndef FF_CPU_CORE_TELEMETRY_OBSERVER_HH
#define FF_CPU_CORE_TELEMETRY_OBSERVER_HH

#include "common/metrics.hh"
#include "cpu/core/observer.hh"

namespace ff
{
namespace cpu
{

class CpuModel;

/** Samples a core's occupancy into a metrics registry. */
class TelemetryObserver final : public CoreObserver
{
  public:
    /** Default epoch length of the occupancy time series. */
    static constexpr Cycle kDefaultEpochCycles = 4096;

    /**
     * @param core the observed core, sampled through its read-only
     *        occupancy(); must outlive the observer
     * @param cq_capacity sizes the CQ-depth histogram (entries)
     * @param max_loads sizes the in-flight-load histogram (MSHRs)
     * @param epoch_cycles time-series resolution in cycles
     */
    TelemetryObserver(const CpuModel &core, unsigned cq_capacity,
                      unsigned max_loads,
                      Cycle epoch_cycles = kDefaultEpochCycles);

    void onCycle(Cycle now, CycleClass cls) override;
    void onDefer(Cycle now, InstIdx idx, DynId id,
                 DeferReason reason) override;
    void onFlush(Cycle now, FlushKind kind, InstIdx target) override;

    /** Closes the partial trailing epoch of every series. */
    void finish() { _reg.finish(); }

    /** The collected histograms, counters and series. */
    const metrics::Registry &registry() const { return _reg; }

    /**
     * Moves the collected registry out (for harvest into a
     * MetricsRecord). The observer must not sample afterwards.
     */
    metrics::Registry takeRegistry() { return std::move(_reg); }

    Cycle epochCycles() const { return _epoch; }

  private:
    const CpuModel &_core;
    Cycle _epoch;
    metrics::Registry _reg;

    // Cached handles: map lookups stay off the per-cycle path.
    metrics::Histogram &_cqDepth;
    metrics::Histogram &_inFlight;
    metrics::Histogram &_feedback;
    metrics::TimeSeries &_cqSeries;
    metrics::TimeSeries &_loadSeries;
    metrics::TimeSeries &_feedbackSeries;
    metrics::TimeSeries &_stallSeries;
    metrics::Counter &_cycles;
    metrics::Counter &_stallCycles;
    metrics::Counter &_defers;
    metrics::Counter &_flushes;
};

} // namespace cpu
} // namespace ff

#endif // FF_CPU_CORE_TELEMETRY_OBSERVER_HH
