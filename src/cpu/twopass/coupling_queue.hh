/**
 * @file
 * The coupling queue (CQ) and coupling result store (CRS) of
 * Section 3.1. Every instruction flows, in order, from the A-pipe's
 * dispatch into this FIFO on its way to the B-pipe. Pre-executed
 * entries carry their results (the CRS payload, folded into the
 * entry); deferred entries carry only identity and will execute for
 * the first time in the B-pipe.
 *
 * Storage is a structure-of-arrays ring: each logical field lives in
 * its own dense array, and the ten per-entry booleans are packed into
 * one flag word. The arrays are a power of two long, so logical entry
 * i sits at (head + i) & mask; the logical capacity alone decides
 * full() and is what a snapshot records. The B-pipe's prescan and
 * regrouping loops read two or three fields per entry per cycle; with
 * the old array-of-structs deque every such read dragged a whole
 * ~100-byte entry through the cache. CqEntry is the record push()
 * takes, always inlined so the A-pipe's entry never passes through
 * memory, and the by-value view returned by entry(); there is
 * deliberately no reference-returning accessor.
 */

#ifndef FF_CPU_TWOPASS_COUPLING_QUEUE_HH
#define FF_CPU_TWOPASS_COUPLING_QUEUE_HH

#include <bit>
#include <vector>

#include "branch/gshare.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "common/types.hh"
#include "cpu/model_stats.hh"
#include "isa/program.hh"

namespace ff
{
namespace cpu
{

/** Disposition of an instruction as it left the A-pipe. */
enum class CqStatus : std::uint8_t
{
    kPreExecuted, ///< completed in A (result, possibly in-flight, in CRS)
    kDeferred,    ///< suppressed in A; executes in B
};

// DeferReason lives in cpu/model_stats.hh so the core layer's
// observer seam can name it without depending on two-pass headers.

/** One CQ entry with its CRS payload: push()'s argument, entry()'s view. */
struct CqEntry
{
    InstIdx idx = 0;       ///< static instruction index
    DynId id = 0;          ///< dynamic id
    Cycle enqueuedAt = 0;  ///< A-pipe dispatch cycle
    CqStatus status = CqStatus::kDeferred;
    DeferReason reason = DeferReason::kNone;
    bool groupEnd = false; ///< carries the (original) stop bit

    // ---- CRS payload (meaningful when pre-executed) -----------------
    bool predTrue = false;
    bool writesDst = false;
    bool writesDst2 = false;
    RegVal dstVal = 0;
    RegVal dst2Val = 0;
    Cycle readyAt = 0;     ///< when the result is usable ("dangling"
                           ///< dependences scoreboard on this)

    // ---- memory bookkeeping ----------------------------------------
    bool isLoad = false;
    bool isStore = false;
    Addr addr = 0;
    unsigned size = 0;

    // ---- branch bookkeeping -----------------------------------------
    bool isBranch = false;
    bool branchResolvedInA = false;
    bool actualTaken = false;     ///< valid when resolved in A
    bool predictedTaken = false;
    InstIdx fallthrough = 0;      ///< next leader when not taken
    branch::Prediction prediction{}; ///< kept for branch entries only
};

/** The bounded, flushable instruction FIFO between the pipes. */
class CouplingQueue
{
  public:
    /** @param capacity entries held; each array rounds it up to a
     *  power of two */
    explicit CouplingQueue(std::size_t capacity)
        : _idx(std::bit_ceil(capacity)), _id(_idx.size()),
          _enq(_idx.size()), _status(_idx.size()), _reason(_idx.size()),
          _flags(_idx.size()), _dstVal(_idx.size()),
          _dst2Val(_idx.size()), _readyAt(_idx.size()),
          _addr(_idx.size()), _size(_idx.size()),
          _fallthrough(_idx.size()), _prediction(_idx.size()),
          _cap(capacity), _mask(_idx.size() - 1)
    {
    }

    /** True if no entry is queued. */
    bool empty() const { return _count == 0; }
    /** True if capacity() entries are queued. */
    bool full() const { return _count == _cap; }
    /** Entries queued. */
    std::size_t size() const { return _count; }
    /** Entries push() can still take. */
    std::size_t freeSlots() const { return _cap - _count; }
    /** The logical capacity the queue was built with. */
    std::size_t capacity() const { return _cap; }

    /**
     * Appends @p e, scattering it into the field arrays; the queue
     * must not be full. A branch entry's prediction is stored, any
     * other entry's is not (its slot may keep a stale token, which
     * entry() never returns). Always inlined: called out of line, the
     * A-pipe's entry had to be built in memory and then reloaded,
     * stalling the host's loads on the pending stores.
     */
    [[gnu::always_inline]] void
    push(const CqEntry &e)
    {
        ff_panic_if(full(), "push to full fifo");
        const std::size_t p = phys(_count++);
        if (e.isBranch)
            _prediction[p] = e.prediction;
        _idx[p] = e.idx;
        _id[p] = e.id;
        _enq[p] = e.enqueuedAt;
        _status[p] = static_cast<std::uint8_t>(e.status);
        _reason[p] = static_cast<std::uint8_t>(e.reason);
        _flags[p] = packFlags(e);
        _dstVal[p] = e.dstVal;
        _dst2Val[p] = e.dst2Val;
        _readyAt[p] = e.readyAt;
        _addr[p] = e.addr;
        _size[p] = e.size;
        _fallthrough[p] = e.fallthrough;
        if (e.status == CqStatus::kDeferred && e.isStore)
            ++_deferredStores;
    }

    // ---- single-field hot accessors (logical index from the head) ---
    InstIdx idx(std::size_t i) const { return _idx[phys(i)]; }
    DynId id(std::size_t i) const { return _id[phys(i)]; }
    Cycle enqueuedAt(std::size_t i) const { return _enq[phys(i)]; }
    CqStatus
    status(std::size_t i) const
    {
        return static_cast<CqStatus>(_status[phys(i)]);
    }
    bool
    preExecuted(std::size_t i) const
    {
        return status(i) == CqStatus::kPreExecuted;
    }
    bool
    deferred(std::size_t i) const
    {
        return status(i) == CqStatus::kDeferred;
    }
    DeferReason
    reason(std::size_t i) const
    {
        return static_cast<DeferReason>(_reason[phys(i)]);
    }
    bool groupEnd(std::size_t i) const { return flag(i, kGroupEnd); }
    bool predTrue(std::size_t i) const { return flag(i, kPredTrue); }
    bool writesDst(std::size_t i) const { return flag(i, kWritesDst); }
    bool writesDst2(std::size_t i) const { return flag(i, kWritesDst2); }
    bool isLoad(std::size_t i) const { return flag(i, kIsLoad); }
    bool isStore(std::size_t i) const { return flag(i, kIsStore); }
    bool isBranch(std::size_t i) const { return flag(i, kIsBranch); }
    bool
    branchResolvedInA(std::size_t i) const
    {
        return flag(i, kBranchResolvedInA);
    }
    bool actualTaken(std::size_t i) const { return flag(i, kActualTaken); }
    bool
    predictedTaken(std::size_t i) const
    {
        return flag(i, kPredictedTaken);
    }
    RegVal dstVal(std::size_t i) const { return _dstVal[phys(i)]; }
    RegVal dst2Val(std::size_t i) const { return _dst2Val[phys(i)]; }
    Cycle readyAt(std::size_t i) const { return _readyAt[phys(i)]; }
    Addr addr(std::size_t i) const { return _addr[phys(i)]; }
    InstIdx fallthrough(std::size_t i) const { return _fallthrough[phys(i)]; }
    /** The prediction of entry @p i, which must be a branch entry. */
    const branch::Prediction &
    prediction(std::size_t i) const
    {
        return _prediction[phys(i)];
    }

    /** Gathers logical entry @p i back into a CqEntry, by value. */
    CqEntry
    entry(std::size_t i) const
    {
        ff_panic_if(i >= _count, "fifo index out of range");
        const std::size_t p = phys(i);
        CqEntry e;
        e.idx = _idx[p];
        e.id = _id[p];
        e.enqueuedAt = _enq[p];
        e.status = static_cast<CqStatus>(_status[p]);
        e.reason = static_cast<DeferReason>(_reason[p]);
        const std::uint16_t f = _flags[p];
        e.groupEnd = (f & kGroupEnd) != 0;
        e.predTrue = (f & kPredTrue) != 0;
        e.writesDst = (f & kWritesDst) != 0;
        e.writesDst2 = (f & kWritesDst2) != 0;
        e.isLoad = (f & kIsLoad) != 0;
        e.isStore = (f & kIsStore) != 0;
        e.isBranch = (f & kIsBranch) != 0;
        e.branchResolvedInA = (f & kBranchResolvedInA) != 0;
        e.actualTaken = (f & kActualTaken) != 0;
        e.predictedTaken = (f & kPredictedTaken) != 0;
        e.dstVal = _dstVal[p];
        e.dst2Val = _dst2Val[p];
        e.readyAt = _readyAt[p];
        e.addr = _addr[p];
        e.size = _size[p];
        e.fallthrough = _fallthrough[p];
        if (e.isBranch)
            e.prediction = _prediction[p];
        return e;
    }

    void
    pop()
    {
        ff_panic_if(empty(), "pop of empty fifo");
        if (deferred(0) && isStore(0))
            --_deferredStores;
        _head = (_head + 1) & _mask;
        --_count;
    }

    void
    clear()
    {
        _head = 0;
        _count = 0;
        _deferredStores = 0;
    }

    /** Removes every entry with id greater than @p boundary. */
    void
    squashYoungerThan(DynId boundary)
    {
        while (_count != 0 && id(_count - 1) > boundary) {
            if (deferred(_count - 1) && isStore(_count - 1))
                --_deferredStores;
            --_count;
        }
    }

    /**
     * Number of deferred stores currently queued (Sec. 4 stat). The
     * A-pipe asks this for every dispatched load, so it is maintained
     * incrementally rather than scanned; entries are immutable once
     * queued (there is deliberately no mutable accessor), which keeps
     * the count exact.
     */
    unsigned deferredStores() const { return _deferredStores; }

    /**
     * Snapshot hooks: every entry (CRS payload included) in queue
     * order. The deferred-store count is rebuilt by re-pushing.
     */
    void
    save(serial::Writer &w) const
    {
        w.u64(_cap);
        w.u64(_count);
        for (std::size_t i = 0; i < _count; ++i) {
            const CqEntry e = entry(i);
            w.u32(e.idx);
            w.u64(e.id);
            w.u64(e.enqueuedAt);
            w.u8(static_cast<std::uint8_t>(e.status));
            w.u8(static_cast<std::uint8_t>(e.reason));
            w.boolean(e.groupEnd);
            w.boolean(e.predTrue);
            w.boolean(e.writesDst);
            w.boolean(e.writesDst2);
            w.u64(e.dstVal);
            w.u64(e.dst2Val);
            w.u64(e.readyAt);
            w.boolean(e.isLoad);
            w.boolean(e.isStore);
            w.u64(e.addr);
            w.u32(e.size);
            w.boolean(e.isBranch);
            w.boolean(e.branchResolvedInA);
            w.boolean(e.actualTaken);
            w.boolean(e.predictedTaken);
            w.u32(e.fallthrough);
            branch::savePrediction(w, e.prediction);
        }
    }

    void
    restore(serial::Reader &r)
    {
        if (r.u64() != _cap) {
            r.fail();
            return;
        }
        clear();
        const std::size_t n = r.seq(60);
        if (n > _cap) {
            r.fail();
            return;
        }
        for (std::size_t i = 0; i < n; ++i) {
            CqEntry e;
            e.idx = r.u32();
            e.id = r.u64();
            e.enqueuedAt = r.u64();
            e.status = static_cast<CqStatus>(r.u8());
            e.reason = static_cast<DeferReason>(r.u8());
            e.groupEnd = r.boolean();
            e.predTrue = r.boolean();
            e.writesDst = r.boolean();
            e.writesDst2 = r.boolean();
            e.dstVal = r.u64();
            e.dst2Val = r.u64();
            e.readyAt = r.u64();
            e.isLoad = r.boolean();
            e.isStore = r.boolean();
            e.addr = r.u64();
            e.size = r.u32();
            e.isBranch = r.boolean();
            e.branchResolvedInA = r.boolean();
            e.actualTaken = r.boolean();
            e.predictedTaken = r.boolean();
            e.fallthrough = r.u32();
            branch::restorePrediction(r, e.prediction);
            if (!r.ok())
                return;
            push(e);
        }
    }

  private:
    enum : std::uint16_t
    {
        kGroupEnd = 1u << 0,
        kPredTrue = 1u << 1,
        kWritesDst = 1u << 2,
        kWritesDst2 = 1u << 3,
        kIsLoad = 1u << 4,
        kIsStore = 1u << 5,
        kIsBranch = 1u << 6,
        kBranchResolvedInA = 1u << 7,
        kActualTaken = 1u << 8,
        kPredictedTaken = 1u << 9,
    };

    static std::uint16_t
    packFlags(const CqEntry &e)
    {
        std::uint16_t f = 0;
        f |= e.groupEnd ? kGroupEnd : 0;
        f |= e.predTrue ? kPredTrue : 0;
        f |= e.writesDst ? kWritesDst : 0;
        f |= e.writesDst2 ? kWritesDst2 : 0;
        f |= e.isLoad ? kIsLoad : 0;
        f |= e.isStore ? kIsStore : 0;
        f |= e.isBranch ? kIsBranch : 0;
        f |= e.branchResolvedInA ? kBranchResolvedInA : 0;
        f |= e.actualTaken ? kActualTaken : 0;
        f |= e.predictedTaken ? kPredictedTaken : 0;
        return f;
    }

    /** Physical array index of logical entry @p i. */
    std::size_t phys(std::size_t i) const { return (_head + i) & _mask; }

    bool flag(std::size_t i, std::uint16_t bit) const
    {
        return (_flags[phys(i)] & bit) != 0;
    }

    // One dense array per logical field, ring-indexed by _head/_count;
    // each is _mask + 1 long.
    std::vector<InstIdx> _idx;
    std::vector<DynId> _id;
    std::vector<Cycle> _enq;
    std::vector<std::uint8_t> _status;
    std::vector<std::uint8_t> _reason;
    std::vector<std::uint16_t> _flags;
    std::vector<RegVal> _dstVal;
    std::vector<RegVal> _dst2Val;
    std::vector<Cycle> _readyAt;
    std::vector<Addr> _addr;
    std::vector<unsigned> _size;
    std::vector<InstIdx> _fallthrough;
    std::vector<branch::Prediction> _prediction;

    std::size_t _cap;  ///< logical capacity
    std::size_t _mask; ///< the arrays' length - 1
    std::size_t _head = 0;
    std::size_t _count = 0;
    unsigned _deferredStores = 0;
};

} // namespace cpu
} // namespace ff

#endif // FF_CPU_TWOPASS_COUPLING_QUEUE_HH
