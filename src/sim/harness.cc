#include "sim/harness.hh"

#include <map>
#include <memory>
#include <mutex>
#include <unordered_set>

#include "analysis/ffcheck.hh"
#include "common/logging.hh"
#include "cpu/functional/functional_cpu.hh"
#include "workloads/kernels.hh"

namespace ff
{
namespace sim
{

namespace
{

/**
 * Memo of programs that already passed the verification wall, keyed
 * by (instruction-stream hash, group limits): every bench simulates
 * the same program under 3-4 models and ffcheck's result depends only
 * on the code and the limits, so re-verification is pure overhead.
 * Mutex-guarded because runBatch() verifies from worker threads.
 * Failures are fatal and therefore never cached.
 */
std::mutex g_verifiedMu;
std::unordered_set<std::uint64_t> g_verified;

std::uint64_t
verifyKey(const isa::Program &prog, const isa::GroupLimits &limits)
{
    std::uint64_t h = prog.instStreamHash();
    const unsigned fields[] = {limits.issueWidth, limits.aluUnits,
                               limits.memUnits, limits.fpUnits,
                               limits.branchUnits};
    for (unsigned f : fields) {
        h ^= f + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
    }
    return h;
}

/** Renders @p stats as one "group.stat value" line each, in the
 *  map's (sorted) order. */
std::string
statLines(const char *group,
          const std::map<std::string, std::uint64_t> &stats)
{
    std::string out;
    for (const auto &[name, value] : stats) {
        out += group;
        out += '.';
        out += name;
        out += ' ';
        out += std::to_string(value);
        out += '\n';
    }
    return out;
}

} // namespace

/**
 * Load-time verification wall: every program entering the harness is
 * run through the ffcheck static verifier, so a workload (bundled or
 * user-supplied) that violates the EPIC structural invariants fails
 * fast with diagnostics instead of misbehaving mid-simulation.
 * Warnings (e.g. reads of architectural zero) are tolerated here;
 * errors are simulator-input bugs and fatal. Results are memoized by
 * program content so repeated simulate() calls on one program (the
 * base/2P/2Pre pattern of every bench) verify once.
 */
void
verifyProgram(const isa::Program &prog, const isa::GroupLimits &limits)
{
    const std::uint64_t key = verifyKey(prog, limits);
    {
        std::lock_guard<std::mutex> lk(g_verifiedMu);
        if (g_verified.count(key) != 0)
            return;
    }
    analysis::CheckOptions opts;
    opts.limits = limits;
    opts.reportPressure = false;
    const analysis::Report rep = analysis::check(prog, opts);
    ff_fatal_if(rep.errors() > 0, "ffcheck rejected program '",
                prog.name(), "':\n",
                analysis::render(rep, prog.name()));
    std::lock_guard<std::mutex> lk(g_verifiedMu);
    g_verified.insert(key);
}

SimOutcome
collectOutcome(cpu::CpuModel &model, CpuKind kind,
               const cpu::RunResult &run)
{
    SimOutcome out;
    out.kind = kind;
    out.run = run;
    out.cycles = model.cycleAccounting();
    out.accesses = model.hierarchy().accessStats();
    out.branches = model.predictor().stats();
    out.regFingerprint = model.archRegs().fingerprint();
    out.memFingerprint = model.memState().fingerprint();
    out.checksum = model.memState().read64(workloads::kChecksumAddr);

    cpu::ModelStats ms;
    model.collectStats(ms);
    out.baseline = ms.baseline;
    out.twopass = ms.twopass;
    out.alat = ms.alat;
    out.runahead = ms.runahead;
    return out;
}

std::string
statsReport(const SimOutcome &o)
{
    std::map<std::string, std::uint64_t> cyc;
    for (unsigned i = 0; i < cpu::kNumCycleClasses; ++i) {
        cyc[cpu::cycleClassName(static_cast<cpu::CycleClass>(i))] =
            o.cycles.counts[i];
    }
    cyc["total"] = o.cycles.total();
    std::map<std::string, std::uint64_t> mem;
    static const char *kWho[] = {"base", "apipe", "bpipe", "runahead"};
    for (unsigned w = 0; w < memory::kNumInitiators; ++w) {
        for (unsigned l = 0; l < memory::kNumMemLevels; ++l) {
            if (o.accesses.counts[w][l] == 0)
                continue;
            const std::string base =
                std::string(kWho[w]) + "." +
                memory::memLevelName(static_cast<memory::MemLevel>(l));
            mem[base + ".accesses"] = o.accesses.counts[w][l];
            mem[base + ".cycles"] = o.accesses.weightedCycles[w][l];
        }
    }
    std::string text =
        statLines("cycles", cyc) +
        statLines("branch", {{"lookups", o.branches.lookups},
                             {"mispredicts", o.branches.mispredicts}}) +
        statLines("mem", mem);

    if (o.kind == CpuKind::kBaseline) {
        const cpu::BaselineStats &b = o.baseline;
        return text + statLines("baseline",
                                {{"loads_issued", b.loadsIssued},
                                 {"stores_issued", b.storesIssued},
                                 {"branches_retired", b.branchesRetired},
                                 {"mispredicts", b.mispredicts}});
    }
    if (o.kind == CpuKind::kRunahead) {
        const cpu::RunaheadStats &r = o.runahead;
        return text + statLines("runahead",
                                {{"episodes", r.episodes},
                                 {"runahead_cycles", r.runaheadCycles},
                                 {"runahead_loads", r.runaheadLoads},
                                 {"runahead_insts", r.runaheadInsts},
                                 {"inv_results", r.invResults}});
    }
    const cpu::TwoPassStats &t = o.twopass;
    std::map<std::string, std::uint64_t> g = {
        {"dispatched", t.dispatched},
        {"pre_executed", t.preExecuted},
        {"deferred", t.deferred},
        {"loads_in_a", t.loadsInA},
        {"loads_in_b", t.loadsInB},
        {"stores_in_a", t.storesInA},
        {"stores_in_b", t.storesInB},
        {"loads_past_deferred_store", t.loadsPastDeferredStore},
        {"store_conflict_flushes", t.storeConflictFlushes},
        {"store_forwardings", t.storeForwardings},
        {"branches_resolved_a", t.branchesResolvedInA},
        {"branches_resolved_b", t.branchesResolvedInB},
        {"adet_mispredicts", t.aDetMispredicts},
        {"bdet_mispredicts", t.bDetMispredicts},
        {"a_stall_cq_full", t.aStallCqFull},
        {"a_stall_anticipable", t.aStallAnticipable},
        {"a_stall_throttled", t.aStallThrottled},
        {"regrouped_groups", t.regroupedGroups},
        {"feedback_applied", t.feedbackApplied},
        {"feedback_dropped", t.feedbackDropped},
        {"registers_repaired", t.registersRepaired},
    };
    for (unsigned r = 1; r < cpu::kNumDeferReasons; ++r) {
        g[std::string("deferred.") +
          cpu::deferReasonName(static_cast<cpu::DeferReason>(r))] =
            t.deferredByReason[r];
    }
    const memory::AlatStats &a = o.alat;
    const double mean_depth =
        t.cqDepthSamples == 0
            ? 0.0
            : static_cast<double>(t.cqDepthSum) /
                  static_cast<double>(t.cqDepthSamples);
    return text + statLines("twopass", g) +
           statLines("alat",
                     {{"allocations", a.allocations},
                      {"store_invalidations", a.storeInvalidations},
                      {"capacity_evictions", a.capacityEvictions},
                      {"checks_passed", a.checksPassed},
                      {"checks_failed", a.checksFailed}}) +
           statLines("cq",
                     {{"mean_depth_x1000",
                       static_cast<std::uint64_t>(mean_depth * 1000.0)},
                      {"samples", t.cqDepthSamples}});
}

SimOutcome
simulate(const isa::Program &prog, CpuKind kind,
         const cpu::CoreConfig &cfg, std::uint64_t max_cycles,
         const MetricsOptions &metrics)
{
    verifyProgram(prog, cfg.limits);

    // The factory owns the kind-to-model mapping (including the
    // regroup override for kTwoPassRegroup).
    const std::unique_ptr<cpu::CpuModel> model =
        cpu::makeModel(kind, prog, cfg);

    MetricsSession session(prog, cfg, metrics);
    session.attach(*model);

    const cpu::RunResult run = model->run(max_cycles);
    ff_fatal_if(!run.halted, "model ", cpuKindName(kind),
                " did not halt within ", max_cycles, " cycles on '",
                prog.name(), "'");

    SimOutcome out = collectOutcome(*model, kind, run);
    if (session.attached()) {
        // A mutable record behind a const pointer: takePipeEvents()
        // may move the events out of an unshared one.
        out.metrics = std::make_shared<MetricsRecord>(session.harvest());
    }
    return out;
}

std::vector<cpu::PipeEvent>
takePipeEvents(SimOutcome &outcome)
{
    ff_panic_if(outcome.metrics == nullptr ||
                    outcome.metrics.use_count() != 1,
                "takePipeEvents needs an unshared metrics record");
    return std::move(
        std::const_pointer_cast<MetricsRecord>(outcome.metrics)
            ->pipeEvents);
}

FunctionalOutcome
runFunctional(const isa::Program &prog)
{
    FunctionalOutcome out;
    verifyProgram(prog, isa::GroupLimits());
    cpu::FunctionalCpu ref(prog);
    out.result = ref.run();
    ff_fatal_if(!out.result.halted, "functional reference did not halt "
                                    "on '",
                prog.name(), "'");
    out.regFingerprint = ref.regs().fingerprint();
    out.memFingerprint = ref.mem().fingerprint();
    out.checksum = ref.mem().read64(workloads::kChecksumAddr);
    return out;
}

} // namespace sim
} // namespace ff
