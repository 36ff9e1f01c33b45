/**
 * @file
 * CpuModel: the one base class of every timed CPU model (baseline
 * in-order, two-pass, run-ahead). It owns the structural state all
 * models share — the program reference, the CoreConfig copy,
 * architectural memory, the cache hierarchy, the direction predictor,
 * the decoupled front end, the Figure-6 cycle accounting and the
 * dense MachineState — validates the program and loads its data image
 * once in its constructor, and provides the single-shot run loop that
 * ticks the hierarchy, calls the model's own tick, records the
 * returned cycle class, advances the front end, and skips the quiet
 * cycles that follow a stall. Models implement only their genuinely
 * distinct per-cycle logic. The experiment harness runs any model to
 * completion and compares architectural results and cycle
 * accounting.
 */

#ifndef FF_CPU_CPU_HH
#define FF_CPU_CPU_HH

#include <algorithm>
#include <cstdint>
#include <memory>

#include "branch/predictor.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "cpu/config.hh"
#include "cpu/core/observer.hh"
#include "cpu/cycle_classes.hh"
#include "cpu/frontend.hh"
#include "cpu/model_stats.hh"
#include "cpu/regfile.hh"
#include "cpu/state/machine_state.hh"
#include "cpu/warm_history.hh"
#include "memory/hierarchy.hh"
#include "memory/sparse_memory.hh"

namespace ff
{
namespace cpu
{

/** Outcome of a simulation run. */
struct RunResult
{
    bool halted = false;          ///< the program's HALT retired
    Cycle cycles = 0;             ///< simulated cycles consumed
    std::uint64_t instsRetired = 0; ///< slots retired (incl. nullified)
    std::uint64_t groupsRetired = 0; ///< issue groups retired

    /** Retired slots per simulated cycle (0 before the first cycle). */
    double
    ipc() const
    {
        return cycles == 0
            ? 0.0
            : static_cast<double>(instsRetired) /
                  static_cast<double>(cycles);
    }
};

/** A timed CPU model: the shared kernel every model derives from. */
class CpuModel
{
  public:
    /**
     * Validates @p prog (held by reference, so it must outlive the
     * model) against the configured group limits, fatal on violation;
     * takes its data image (a page-table copy: pages stay shared until
     * a write clones one); and builds the common subsystems. @p who
     * tags this core's memory accesses.
     */
    CpuModel(const isa::Program &prog, const CoreConfig &cfg,
             memory::Initiator who);

    virtual ~CpuModel() = default;

    /**
     * Runs until HALT retires or @p max_cycles elapse. Models are
     * single-shot per construction, with one exception: an instance
     * that just hit restoreState() may run() once more, continuing
     * from the restored cycle — the fork half of warm-up sharing.
     */
    virtual RunResult run(std::uint64_t max_cycles) = 0;

    /**
     * Warps a freshly constructed (never-run) model to an
     * architectural state reached by the functional reference:
     * register file and memory are copied in, fetch restarts at
     * issue-group leader @p entry, and every microarchitectural
     * structure (caches, predictor, queues, scoreboards) stays cold —
     * the sampled-simulation replay pays a detailed warm-up to flush
     * that cold-start bias. The cycle cursor remains 0. Invokes
     * warpModelState() so models with extra architectural mirrors
     * (the two-pass A-file) re-synchronize. Only legal on a model
     * that has never run.
     */
    void warpArchState(const RegFile &regs,
                       const memory::SparseMemory &mem, InstIdx entry);

    /**
     * Replays a recorded event history untimed into the caches (tag
     * and LRU fills) and the direction predictor (one predict/update
     * pair per recorded outcome) of a never-run model — the
     * functional-warming companion of warpArchState(), turning the
     * cold micro-architecture the warp leaves behind into the hot
     * state the true execution would have carried to that point.
     */
    void warmMicroArch(const WarmSnapshot &warm);

    /**
     * Re-arms the single-shot run() latch so a run stopped by its
     * cycle budget (not by HALT) may continue under a larger budget —
     * the hook sampled replay uses to split one resume into a warm-up
     * leg and a measured leg. Panics if the model never ran or
     * already halted.
     */
    void
    rearmResume()
    {
        ff_panic_if(!_ran, "rearmResume() before any run()");
        ff_panic_if(_res.halted, "rearmResume() after HALT retired");
        _resumable = true;
    }

    /** Cycles simulated so far — the resume point of a snapshot. */
    Cycle currentCycle() const { return _now; }

    /**
     * Serializes the model's complete simulation state: every shared
     * subsystem (cycle cursor, run result, accounting, memory,
     * hierarchy, predictor, front end), then the model section via
     * the saveModelState() hook.
     */
    void saveState(serial::Writer &w) const;

    /**
     * Inverse of saveState() onto a freshly constructed instance of
     * the identical (program, config) pair, re-arming run() to
     * continue from the restored cycle. Structural mismatches surface
     * through the reader's failure flag.
     */
    void restoreState(serial::Reader &r);

    /** Architectural register state (the B-file for two-pass). */
    const RegFile &archRegs() const { return _ms.regs; }

    /** Architectural memory state. */
    const memory::SparseMemory &memState() const { return _mem; }

    /** Figure-6 cycle classification of the architectural pipe. */
    const CycleAccounting &cycleAccounting() const { return _acct; }

    /** The cache hierarchy (its access counters feed the reports). */
    memory::Hierarchy &hierarchy() { return _hier; }

    /** The direction predictor (its counters feed the reports). */
    const branch::DirectionPredictor &predictor() const { return *_pred; }

    /**
     * Fills the sections of @p out this model owns (the baseline,
     * two-pass or run-ahead counters), leaving the rest untouched.
     * The one way a model's counters leave it: sim::collectOutcome()
     * gathers them and sim::statsReport() renders the outcome.
     */
    virtual void collectStats(ModelStats &out) const = 0;

    /**
     * Read-only occupancy of the core's structures as of cycle
     * @p now. The base samples what every model shares (loads
     * outstanding past the L1); models with more pipeline structure
     * (the two-pass coupling queue and feedback path) extend it.
     * Strictly observational: overrides must not mutate state.
     */
    virtual OccupancySample occupancy(Cycle now) const;

    /**
     * Attaches (or detaches, with nullptr) an observer. The pointer
     * lives in MachineState, so the stage units composed over the
     * state block see the same attachment.
     */
    void setObserver(CoreObserver *obs) { _ms.observer = obs; }

  protected:
    /**
     * The shared run loop, instantiated per model: per cycle, ticks
     * the hierarchy, invokes @p tick_fn (the model's statically-bound
     * tick), records the cycle class, notifies any observer, and
     * ticks the front end. Each model's run() wraps its own tick in a
     * lambda so the per-cycle call devirtualizes and inlines instead
     * of going through a vtable.
     *
     * After a stalled tick at `now` the loop skips the quiet cycles
     * that follow (DESIGN.md §9). It bounds them by the hierarchy's
     * and the front end's next events and the budget, then asks
     * @p skip_fn, as skip_fn(now, limit), for the model's own horizon:
     * it returns the first cycle, at most limit, at which the model's
     * tick can do anything but repeat its verdict, and it charges the
     * model's per-cycle counters for every cycle before that one. The
     * loop charges those cycles to the same class and delivers one
     * onCycle per cycle to any observer.
     *
     * Single-shot — except that a restoreState() re-arms it to
     * continue from the restored cycle, and the loop state lives in
     * members so a run stopped by max_cycles resumes exactly where it
     * left off after a snapshot round trip.
     */
    template <typename TickFn, typename SkipFn>
    RunResult
    runLoop(TickFn &&tick_fn, SkipFn &&skip_fn, std::uint64_t max_cycles)
    {
        ff_panic_if(_ran && !_resumable,
                    "CPU models are single-shot; construct anew (or "
                    "restore a snapshot to resume)");
        _ran = true;
        _resumable = false;

        while (!_res.halted && _now < max_cycles) {
            _hier.tick(_now);
            const CycleClass cls = tick_fn(_now, _res);
            Cycle next = _now + 1;
            if (cls != CycleClass::kUnstalled) {
                const Cycle limit =
                    std::min({_hier.nextEvent(), _fe.nextEvent(_now),
                              Cycle{max_cycles}});
                if (limit > next)
                    next = std::max(next, skip_fn(_now, limit));
            }
            _acct.record(cls, next - _now);
            if (_ms.observer != nullptr) {
                for (Cycle t = _now; t < next; ++t)
                    _ms.observer->onCycle(t, cls);
            }
            _fe.tick(_now);
            _now = next;
        }
        _res.cycles = _now;
        return _res;
    }

    /**
     * Serializes the state the concrete model owns beyond the shared
     * subsystems (register files, scoreboards, queues, counters).
     */
    virtual void saveModelState(serial::Writer &w) const = 0;

    /** Exact inverse of saveModelState() on a same-config instance. */
    virtual void restoreModelState(serial::Reader &r) = 0;

    /**
     * warpArchState() hook for model-owned mirrors of architectural
     * state: called after the B-file and memory have been replaced,
     * before the model runs. The default is a no-op (the baseline and
     * run-ahead models re-derive their shadows lazily); the two-pass
     * models synchronize the A-file here.
     */
    virtual void warpModelState() {}

    const isa::Program &_prog; ///< the program being simulated
    CoreConfig _cfg;           ///< the machine configuration
    memory::SparseMemory _mem; ///< architectural memory
    memory::Hierarchy _hier;   ///< caches, MSHRs and memory timing
    std::unique_ptr<branch::DirectionPredictor> _pred; ///< direction
    FrontEnd _fe;              ///< decoupled fetch
    CycleAccounting _acct;     ///< Figure-6 cycle classes
    MachineState _ms; ///< the dense per-cycle hot state (see state/)

  private:
    bool _ran = false;
    bool _resumable = false; ///< set by restoreState, spent by run
    Cycle _now = 0;          ///< cycles simulated so far
    RunResult _res;          ///< accumulated run outcome
};

} // namespace cpu
} // namespace ff

#endif // FF_CPU_CPU_HH
