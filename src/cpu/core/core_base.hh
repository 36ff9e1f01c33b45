/**
 * @file
 * CoreBase: the shared kernel of every timed CPU model. It owns the
 * structural state all models duplicate — the program reference, the
 * CoreConfig copy, architectural memory, the cache hierarchy, the
 * direction predictor, the decoupled front end, and the Figure-6
 * cycle accounting — performs the validate-and-load-pages dance once
 * in its constructor, and provides the single-shot run() skeleton
 * that ticks the hierarchy, calls the per-model tick() hook, records
 * the returned cycle class, and advances the front end. Models
 * implement only their genuinely distinct per-cycle logic.
 */

#ifndef FF_CPU_CORE_CORE_BASE_HH
#define FF_CPU_CORE_CORE_BASE_HH

#include <memory>

#include "common/logging.hh"
#include "cpu/config.hh"
#include "cpu/core/observer.hh"
#include "cpu/cpu.hh"
#include "cpu/frontend.hh"
#include "cpu/state/machine_state.hh"

namespace ff
{
namespace cpu
{

/** Shared skeleton of the timed models. */
class CoreBase : public CpuModel, public OccupancyProbe
{
  public:
    /**
     * Validates @p prog against the configured group limits (fatal on
     * violation), loads its data image, and builds the common
     * subsystems. @p who tags this core's memory accesses.
     *
     * @p load_image false skips materializing the program's data
     * image into architectural memory — only for callers that
     * replace the whole memory state before running: sampled replay
     * warps one model per interval, and a warm-up fork restores a
     * snapshot. Either way the image load is O(footprint) work that
     * would immediately be thrown away.
     */
    CoreBase(const isa::Program &prog, const CoreConfig &cfg,
             memory::Initiator who, bool load_image = true);
    /** Models hold a reference: temporaries would dangle. */
    CoreBase(isa::Program &&, const CoreConfig &,
             memory::Initiator) = delete;

    CoreBase *asCoreBase() final { return this; }

    bool supportsSnapshot() const final { return true; }
    Cycle currentCycle() const final { return _now; }

    /**
     * See CpuModel::warpArchState(). Copies the architectural
     * register file and memory, restarts the front end at @p entry,
     * and invokes warpModelState() so models with extra architectural
     * mirrors (the two-pass A-file) re-synchronize. Only legal on a
     * model that has never run: warping is a construction-time
     * operation, not a mid-run rewrite.
     */
    void warpArchState(const RegFile &regs,
                       const memory::SparseMemory &mem,
                       InstIdx entry) final;

    /**
     * See CpuModel::warmMicroArch(). Replays the history into the
     * cache hierarchy (untimed tag/LRU fills) and the direction
     * predictor (one predict/update pair per recorded outcome). Like
     * warping, only legal before the first run().
     */
    void warmMicroArch(const WarmSnapshot &warm) final;

    /** See CpuModel::rearmResume(). */
    void
    rearmResume() final
    {
        ff_panic_if(!_ran, "rearmResume() before any run()");
        ff_panic_if(_res.halted, "rearmResume() after HALT retired");
        _resumable = true;
    }

    /**
     * Serializes every CoreBase-owned subsystem (cycle cursor, run
     * result, accounting, memory, hierarchy, predictor, front end)
     * then the model section via the saveModelState() hook.
     */
    void saveState(serial::Writer &w) const final;
    void restoreState(serial::Reader &r) final;

    const memory::SparseMemory &memState() const final { return _mem; }
    const CycleAccounting &cycleAccounting() const final
    {
        return _acct;
    }
    memory::Hierarchy &hierarchy() final { return _hier; }
    const branch::DirectionPredictor &predictor() const final
    {
        return *_pred;
    }

    /**
     * Attaches (or detaches, with nullptr) an observer. The pointer
     * is mirrored into MachineState so stage units composed over the
     * state block see the same attachment.
     */
    void
    setObserver(CoreObserver *obs)
    {
        _observer = obs;
        _ms.observer = obs;
    }

    /** The dense machine state, for observers and tests (read-only). */
    const MachineState &machineState() const { return _ms; }

    /**
     * Occupancy every model shares: loads outstanding past the L1.
     * Models with more pipeline structure (the two-pass coupling
     * queue and feedback path) override and extend the sample.
     */
    OccupancySample occupancy(Cycle now) const override;

  protected:
    /**
     * The shared run loop, instantiated per model: per cycle, ticks
     * the hierarchy, invokes @p tick_fn (the model's statically-bound
     * tick), records the cycle class, notifies any observer, and
     * ticks the front end. Each model's run() wraps its own tick in a
     * lambda so the per-cycle call devirtualizes and inlines instead
     * of going through a vtable — the old `virtual tick()` cost an
     * indirect call per simulated cycle.
     *
     * Single-shot — except that a restoreState() re-arms it to
     * continue from the restored cycle, and the loop state lives in
     * members so a run stopped by max_cycles resumes exactly where it
     * left off after a snapshot round trip.
     */
    template <typename TickFn>
    RunResult
    runLoop(TickFn &&tick_fn, std::uint64_t max_cycles)
    {
        ff_panic_if(_ran && !_resumable,
                    "CPU models are single-shot; construct anew (or "
                    "restore a snapshot to resume)");
        _ran = true;
        _resumable = false;

        while (!_res.halted && _now < max_cycles) {
            _hier.tick(_now);
            const CycleClass cls = tick_fn(_now, _res);
            _acct.record(cls);
            if (_observer != nullptr)
                _observer->onCycle(_now, cls);
            _fe.tick(_now);
            ++_now;
        }
        _res.cycles = _now;
        return _res;
    }

    /**
     * Serializes the state the concrete model owns beyond the shared
     * subsystems (register files, scoreboards, queues, counters).
     * restoreModelState() is its exact inverse on a same-config
     * instance.
     */
    virtual void saveModelState(serial::Writer &w) const = 0;
    virtual void restoreModelState(serial::Reader &r) = 0;

    /**
     * warpArchState() hook for model-owned mirrors of architectural
     * state: called after the B-file and memory have been replaced,
     * before the model runs. The default is a no-op (the baseline and
     * run-ahead models re-derive their shadows lazily); the two-pass
     * models synchronize the A-file here.
     */
    virtual void warpModelState() {}

    /** The attached observer, or nullptr. */
    CoreObserver *observer() const { return _observer; }

    /** Observer convenience used by models at group retirement. */
    void
    notifyGroupRetire(Cycle now, InstIdx leader, unsigned slots) const
    {
        if (_observer != nullptr)
            _observer->onGroupRetire(now, leader, slots);
    }

    const isa::Program &_prog;
    CoreConfig _cfg;
    memory::SparseMemory _mem;   ///< architectural memory
    memory::Hierarchy _hier;
    std::unique_ptr<branch::DirectionPredictor> _pred;
    FrontEnd _fe;
    CycleAccounting _acct;
    MachineState _ms; ///< the dense per-cycle hot state (see state/)

  private:
    CoreObserver *_observer = nullptr;
    bool _ran = false;
    bool _resumable = false; ///< set by restoreState, spent by run
    Cycle _now = 0;          ///< cycles simulated so far
    RunResult _res;          ///< accumulated run outcome
};

} // namespace cpu
} // namespace ff

#endif // FF_CPU_CORE_CORE_BASE_HH
