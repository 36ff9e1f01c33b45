/**
 * @file
 * The machine-readable metrics path of the experiment harness: a
 * MetricsSession attaches itself to a timed model as its one
 * CoreObserver, calls the profiling/telemetry/pipeview clients it
 * built directly on every event, harvests them into a
 * versioned MetricsRecord after the run, and the export helpers
 * render the record — together with the run's aggregate statistics
 * and configuration — as a JSON document matching
 * tools/metrics_schema.json, or as a human-readable top-K
 * stall-attribution table. simulate()/runBatch()/runSweep() accept
 * MetricsOptions and carry the resulting record in the SimOutcome,
 * so a sweep emits one metrics record per (workload, configuration)
 * cell.
 */

#ifndef FF_SIM_METRICS_HH
#define FF_SIM_METRICS_HH

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.hh"
#include "cpu/config.hh"
#include "cpu/core/model_factory.hh"
#include "cpu/core/pipeview_observer.hh"
#include "cpu/core/profile_observer.hh"
#include "cpu/core/telemetry_observer.hh"

namespace ff
{
namespace sim
{

struct SimOutcome;

/**
 * Version of the exported JSON document. Bump on any
 * backwards-incompatible change to the emitted structure, and keep
 * tools/metrics_schema.json in lock step (the bench-smoke gate
 * validates every emitted document against it).
 * v2: optional "sampled" object carrying the sampled-simulation
 * estimator fields (mean/stddev/stderr/CI, interval coverage).
 */
inline constexpr unsigned kMetricsSchemaVersion = 2;

/** What to collect during a run. All off (the default) is free. */
struct MetricsOptions
{
    bool profile = false;   ///< per-instruction attribution
    bool telemetry = false; ///< occupancy histograms + time series
    bool pipeview = false;  ///< per-dynamic-instruction lifecycle events
    Cycle epochCycles = cpu::TelemetryObserver::kDefaultEpochCycles;
    /** Event cap of the pipeview recording (drops past it). */
    std::size_t pipeviewMaxEvents =
        cpu::PipeViewObserver::kDefaultMaxEvents;

    bool enabled() const { return profile || telemetry || pipeview; }
};

/** One harvested run's worth of profile + telemetry data. */
struct MetricsRecord
{
    unsigned schemaVersion = kMetricsSchemaVersion;
    MetricsOptions options;

    /** One active static instruction of the profile table. */
    struct ProfileRow
    {
        InstIdx idx = 0;
        std::int32_t srcLine = -1; ///< assembler provenance, -1 if none
        std::string text;          ///< disassembly
        cpu::InstProfile prof;
    };

    /** Active rows, descending stall cycles. Empty unless profiling. */
    std::vector<ProfileRow> profile;
    /** Cycles pending after the final retirement, by class. */
    std::array<std::uint64_t, cpu::kNumCycleClasses> unattributed{};

    /** Histograms/counters/series. Empty unless telemetry. */
    metrics::Registry telemetry;

    /** Lifecycle event stream in firing order. Empty unless pipeview;
     *  sim::buildPipeTrace() packages it into an ffpipe container. */
    std::vector<cpu::PipeEvent> pipeEvents;
    /** Events dropped past the pipeview cap. */
    std::uint64_t pipeDropped = 0;
};

/**
 * Owns the observer clients for one run: construct, attach() to the
 * model, run the model, then harvest(). The session is the model's
 * one observer: each hook calls every client it built, in a fixed
 * order (profile, telemetry, pipeview).
 */
class MetricsSession final : public cpu::CoreObserver
{
  public:
    /** @p prog and @p cfg must outlive the session. */
    MetricsSession(const isa::Program &prog,
                   const cpu::CoreConfig &cfg,
                   const MetricsOptions &opt);

    MetricsSession(const MetricsSession &) = delete;
    MetricsSession &operator=(const MetricsSession &) = delete;

    /** Builds the requested clients and attaches the session to
     *  @p model (no-op when no metrics are requested). */
    void attach(cpu::CpuModel &model);

    /** True if attach() attached the session. */
    bool attached() const { return _model != nullptr; }

    /** Closes the collection and moves the data into a record. */
    MetricsRecord harvest();

    void
    onCycle(Cycle now, cpu::CycleClass cls) override
    {
        forEachClient([&](auto &c) { c.onCycle(now, cls); });
    }

    void
    onGroupRetire(Cycle now, InstIdx leader, unsigned slots) override
    {
        forEachClient([&](auto &c) { c.onGroupRetire(now, leader, slots); });
    }

    void
    onDefer(Cycle now, InstIdx idx, DynId id,
            cpu::DeferReason reason) override
    {
        forEachClient([&](auto &c) { c.onDefer(now, idx, id, reason); });
    }

    void
    onFlush(Cycle now, cpu::FlushKind kind, InstIdx target) override
    {
        forEachClient([&](auto &c) { c.onFlush(now, kind, target); });
    }

    void
    onDispatch(Cycle now, InstIdx idx, DynId id) override
    {
        forEachClient([&](auto &c) { c.onDispatch(now, idx, id); });
    }

    void
    onReplay(Cycle now, InstIdx idx, DynId id) override
    {
        forEachClient([&](auto &c) { c.onReplay(now, idx, id); });
    }

    void
    onFeedbackApply(Cycle now, DynId id, unsigned regSlot) override
    {
        forEachClient(
            [&](auto &c) { c.onFeedbackApply(now, id, regSlot); });
    }

  private:
    /**
     * Calls @p fn on each client the session built, profile first,
     * then telemetry, then pipeview. The clients are final classes,
     * so every hook @p fn calls binds statically, and one a client
     * does not override inlines to the base's empty body.
     */
    template <typename Fn>
    void
    forEachClient(Fn &&fn)
    {
        if (_profile != nullptr)
            fn(*_profile);
        if (_telemetry != nullptr)
            fn(*_telemetry);
        if (_pipeview != nullptr)
            fn(*_pipeview);
    }

    const isa::Program &_prog;
    const cpu::CoreConfig &_cfg;
    MetricsOptions _opt;
    std::unique_ptr<cpu::ProfileObserver> _profile;
    std::unique_ptr<cpu::TelemetryObserver> _telemetry;
    std::unique_ptr<cpu::PipeViewObserver> _pipeview;
    cpu::CpuModel *_model = nullptr;
};

/**
 * Renders the full versioned JSON document for one run:
 * {schemaVersion, program, model, config, run, cycles, branch,
 * twopass, profile, telemetry}. @p outcome must carry the record
 * (outcome.metrics != nullptr).
 */
std::string metricsToJson(const SimOutcome &outcome,
                          const cpu::CoreConfig &cfg,
                          const std::string &program);

/**
 * Human-readable top-@p k stall-attribution table of a profiled
 * record (all active rows when @p k is 0), with the per-class cycle
 * split, deferral and flush counts, and source provenance per row.
 */
std::string renderProfileTable(const MetricsRecord &rec,
                               unsigned k = 20);

} // namespace sim
} // namespace ff

#endif // FF_SIM_METRICS_HH
