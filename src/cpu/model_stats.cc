#include "cpu/model_stats.hh"

namespace ff
{
namespace cpu
{

const char *
deferReasonName(DeferReason r)
{
    switch (r) {
      case DeferReason::kNone: return "none";
      case DeferReason::kOperandInvalid: return "operand_invalid";
      case DeferReason::kOperandInFlight: return "operand_in_flight";
      case DeferReason::kMshrFull: return "mshr_full";
      case DeferReason::kStoreBufferFull: return "store_buffer_full";
      case DeferReason::kConflictRetry: return "conflict_retry";
      case DeferReason::kNoFunctionalUnit: return "no_functional_unit";
    }
    return "?";
}

void
saveStats(serial::Writer &w, const TwoPassStats &s)
{
    w.u64(s.dispatched);
    w.u64(s.preExecuted);
    w.u64(s.deferred);
    for (const std::uint64_t c : s.deferredByReason)
        w.u64(c);
    w.u64(s.loadsInA);
    w.u64(s.loadsInB);
    w.u64(s.storesInA);
    w.u64(s.storesInB);
    w.u64(s.loadsPastDeferredStore);
    w.u64(s.storeConflictFlushes);
    w.u64(s.storeForwardings);
    w.u64(s.branchesResolvedInA);
    w.u64(s.branchesResolvedInB);
    w.u64(s.aDetMispredicts);
    w.u64(s.bDetMispredicts);
    w.u64(s.aStallCqFull);
    w.u64(s.aStallAnticipable);
    w.u64(s.aStallThrottled);
    w.u64(s.regroupedGroups);
    w.u64(s.feedbackApplied);
    w.u64(s.feedbackDropped);
    w.u64(s.registersRepaired);
    w.u64(s.cqDepthSum);
    w.u64(s.cqDepthSamples);
}

void
restoreStats(serial::Reader &r, TwoPassStats &s)
{
    s.dispatched = r.u64();
    s.preExecuted = r.u64();
    s.deferred = r.u64();
    for (std::uint64_t &c : s.deferredByReason)
        c = r.u64();
    s.loadsInA = r.u64();
    s.loadsInB = r.u64();
    s.storesInA = r.u64();
    s.storesInB = r.u64();
    s.loadsPastDeferredStore = r.u64();
    s.storeConflictFlushes = r.u64();
    s.storeForwardings = r.u64();
    s.branchesResolvedInA = r.u64();
    s.branchesResolvedInB = r.u64();
    s.aDetMispredicts = r.u64();
    s.bDetMispredicts = r.u64();
    s.aStallCqFull = r.u64();
    s.aStallAnticipable = r.u64();
    s.aStallThrottled = r.u64();
    s.regroupedGroups = r.u64();
    s.feedbackApplied = r.u64();
    s.feedbackDropped = r.u64();
    s.registersRepaired = r.u64();
    s.cqDepthSum = r.u64();
    s.cqDepthSamples = r.u64();
}

void
saveStats(serial::Writer &w, const BaselineStats &s)
{
    w.u64(s.loadsIssued);
    w.u64(s.storesIssued);
    w.u64(s.branchesRetired);
    w.u64(s.mispredicts);
}

void
restoreStats(serial::Reader &r, BaselineStats &s)
{
    s.loadsIssued = r.u64();
    s.storesIssued = r.u64();
    s.branchesRetired = r.u64();
    s.mispredicts = r.u64();
}

void
saveStats(serial::Writer &w, const RunaheadStats &s)
{
    w.u64(s.episodes);
    w.u64(s.runaheadCycles);
    w.u64(s.runaheadLoads);
    w.u64(s.runaheadInsts);
    w.u64(s.invResults);
}

void
restoreStats(serial::Reader &r, RunaheadStats &s)
{
    s.episodes = r.u64();
    s.runaheadCycles = r.u64();
    s.runaheadLoads = r.u64();
    s.runaheadInsts = r.u64();
    s.invResults = r.u64();
}

} // namespace cpu
} // namespace ff
