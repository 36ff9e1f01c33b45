#include "sim/metrics.hh"

#include <sstream>

#include "isa/disasm.hh"
#include "sim/harness.hh"
#include "sim/report.hh"
#include "sim/sampled.hh"

namespace ff
{
namespace sim
{

MetricsSession::MetricsSession(const isa::Program &prog,
                               const cpu::CoreConfig &cfg,
                               const MetricsOptions &opt)
    : _prog(prog), _cfg(cfg), _opt(opt)
{
}

void
MetricsSession::attach(cpu::CpuModel &model)
{
    if (!_opt.enabled())
        return;
    _model = &model;
    if (_opt.profile)
        _profile = std::make_unique<cpu::ProfileObserver>(_prog);
    if (_opt.telemetry) {
        _telemetry = std::make_unique<cpu::TelemetryObserver>(
            model, _cfg.couplingQueueSize,
            _cfg.mem.maxOutstandingLoads, _opt.epochCycles);
    }
    if (_opt.pipeview) {
        _pipeview = std::make_unique<cpu::PipeViewObserver>(
            _opt.pipeviewMaxEvents);
    }
    model.setObserver(this);
}

MetricsRecord
MetricsSession::harvest()
{
    MetricsRecord rec;
    rec.options = _opt;
    if (_model == nullptr)
        return rec;
    // Detach before harvesting so a (misuse) later run cannot write
    // into moved-from observers.
    _model->setObserver(nullptr);

    if (_profile != nullptr) {
        rec.unattributed = _profile->unattributed();
        const std::vector<InstIdx> order =
            _profile->topByStallCycles(0);
        rec.profile.reserve(order.size());
        for (InstIdx i : order) {
            MetricsRecord::ProfileRow row;
            row.idx = i;
            row.srcLine = _prog.inst(i).srcLine;
            row.text = isa::disasm(_prog.inst(i));
            row.prof = _profile->at(i);
            rec.profile.push_back(std::move(row));
        }
    }
    if (_telemetry != nullptr) {
        _telemetry->finish();
        rec.telemetry = _telemetry->takeRegistry();
    }
    if (_pipeview != nullptr) {
        rec.pipeDropped = _pipeview->dropped();
        rec.pipeEvents = _pipeview->take();
    }
    return rec;
}

namespace
{

void
emitCycleArray(metrics::JsonWriter &w, const char *key,
               const std::array<std::uint64_t,
                                cpu::kNumCycleClasses> &counts)
{
    w.key(key);
    w.beginObject();
    for (unsigned c = 0; c < cpu::kNumCycleClasses; ++c) {
        w.kv(cpu::cycleClassName(static_cast<cpu::CycleClass>(c)),
             counts[c]);
    }
    w.endObject();
}

void
emitConfig(metrics::JsonWriter &w, const cpu::CoreConfig &cfg)
{
    w.key("config");
    w.beginObject();
    w.kv("issueWidth", cfg.limits.issueWidth);
    w.kv("aluUnits", cfg.limits.aluUnits);
    w.kv("memUnits", cfg.limits.memUnits);
    w.kv("fpUnits", cfg.limits.fpUnits);
    w.kv("branchUnits", cfg.limits.branchUnits);
    w.kv("frontEndDepth", cfg.frontEndDepth);
    w.kv("couplingQueueSize", cfg.couplingQueueSize);
    w.kv("alatCapacity", cfg.alatCapacity);
    w.kv("storeBufferSize", cfg.storeBufferSize);
    w.kv("feedbackLatency", cfg.feedbackLatency);
    w.kv("feedbackEnabled", cfg.feedbackEnabled);
    w.kv("regroup", cfg.regroup);
    w.kv("aPipeHasFpUnits", cfg.aPipeHasFpUnits);
    w.kv("aPipeThrottlePercent", cfg.aPipeThrottlePercent);
    w.kv("predictor",
         branch::predictorKindName(cfg.predictorKind));
    w.kv("predictorEntries", cfg.predictorEntries);
    w.kv("memoryLatency", cfg.mem.memoryLatency);
    w.kv("maxOutstandingLoads", cfg.mem.maxOutstandingLoads);
    w.kv("prefetchDegree", cfg.mem.prefetchDegree);
    w.endObject();
}

void
emitProfile(metrics::JsonWriter &w, const MetricsRecord &rec)
{
    w.key("profile");
    w.beginObject();
    w.kv("enabled", rec.options.profile);
    emitCycleArray(w, "unattributed", rec.unattributed);
    w.key("rows");
    w.beginArray();
    for (const MetricsRecord::ProfileRow &row : rec.profile) {
        w.beginObject();
        w.kv("inst", row.idx);
        w.kv("srcLine", row.srcLine);
        w.kv("text", row.text);
        w.kv("retires", row.prof.retires);
        w.kv("slots", row.prof.slots);
        w.kv("stallCycles", row.prof.stallCycles());
        emitCycleArray(w, "cycles", row.prof.cycles);
        w.key("defers");
        w.beginObject();
        for (unsigned r = 1; r < cpu::kNumDeferReasons; ++r) {
            w.kv(cpu::deferReasonName(
                     static_cast<cpu::DeferReason>(r)),
                 row.prof.defers[r]);
        }
        w.endObject();
        w.key("flushes");
        w.beginObject();
        for (unsigned k = 0; k < cpu::kNumFlushKinds; ++k) {
            w.kv(cpu::flushKindName(static_cast<cpu::FlushKind>(k)),
                 row.prof.flushes[k]);
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

} // namespace

std::string
metricsToJson(const SimOutcome &outcome, const cpu::CoreConfig &cfg,
              const std::string &program)
{
    std::ostringstream os;
    metrics::JsonWriter w(os);

    w.beginObject();
    w.kv("schemaVersion", kMetricsSchemaVersion);
    w.kv("program", program);
    w.kv("model", cpuKindName(outcome.kind));
    emitConfig(w, cfg);

    w.key("run");
    w.beginObject();
    w.kv("halted", outcome.run.halted);
    w.kv("cycles", outcome.run.cycles);
    w.kv("instsRetired", outcome.run.instsRetired);
    w.kv("groupsRetired", outcome.run.groupsRetired);
    w.kv("ipc", outcome.run.ipc());
    w.endObject();

    emitCycleArray(w, "cycles", outcome.cycles.counts);

    w.key("branch");
    w.beginObject();
    w.kv("lookups", outcome.branches.lookups);
    w.kv("mispredicts", outcome.branches.mispredicts);
    w.endObject();

    // Two-pass counters are emitted unconditionally (zero for the
    // baseline/run-ahead kinds) so the document shape is stable.
    const cpu::TwoPassStats &tp = outcome.twopass;
    w.key("twopass");
    w.beginObject();
    w.kv("dispatched", tp.dispatched);
    w.kv("preExecuted", tp.preExecuted);
    w.kv("deferred", tp.deferred);
    w.key("deferredByReason");
    w.beginObject();
    for (unsigned r = 1; r < cpu::kNumDeferReasons; ++r) {
        w.kv(cpu::deferReasonName(static_cast<cpu::DeferReason>(r)),
             tp.deferredByReason[r]);
    }
    w.endObject();
    w.kv("storeConflictFlushes", tp.storeConflictFlushes);
    w.kv("bDetMispredicts", tp.bDetMispredicts);
    w.kv("feedbackApplied", tp.feedbackApplied);
    w.kv("feedbackDropped", tp.feedbackDropped);
    w.endObject();

    if (outcome.sampled != nullptr) {
        const SampledEstimate &e = *outcome.sampled;
        w.key("sampled");
        w.beginObject();
        w.kv("intervalCycles", e.options.intervalCycles);
        w.kv("detailCycles", e.options.detailCycles);
        w.kv("warmupCycles", e.options.warmupCycles);
        w.kv("maxIntervals", e.options.maxIntervals);
        w.kv("spacing", e.spacing);
        w.kv("intervalsTotal", e.intervalsTotal);
        w.kv("intervalsMeasured", e.intervalsMeasured);
        w.kv("sampledCycles", e.sampledCycles);
        w.kv("sampledInsts", e.sampledInsts);
        w.kv("totalInsts", e.totalInsts);
        w.kv("prefixCycles", e.prefixCycles);
        w.kv("prefixInsts", e.prefixInsts);
        w.kv("ipcMean", e.ipcMean);
        w.kv("ipcStdDev", e.ipcStdDev);
        w.kv("ipcStdErr", e.ipcStdErr);
        w.kv("ipcCi95", e.ipcCi95);
        w.kv("estimatedCycles", e.estimatedCycles);
        w.endObject();
    }

    if (outcome.metrics != nullptr) {
        const MetricsRecord &rec = *outcome.metrics;
        emitProfile(w, rec);
        w.key("telemetry");
        w.beginObject();
        w.kv("enabled", rec.options.telemetry);
        w.kv("epochCycles",
             static_cast<std::uint64_t>(rec.options.epochCycles));
        w.key("data");
        rec.telemetry.toJson(w);
        w.endObject();
    }

    w.endObject();
    os << '\n';
    return os.str();
}

std::string
renderProfileTable(const MetricsRecord &rec, unsigned k)
{
    std::uint64_t total_stall = 0;
    for (const auto &row : rec.profile)
        total_stall += row.prof.stallCycles();
    for (unsigned c = 0; c < cpu::kNumCycleClasses; ++c) {
        if (static_cast<cpu::CycleClass>(c) !=
            cpu::CycleClass::kUnstalled) {
            total_stall += rec.unattributed[c];
        }
    }

    TextTable t;
    t.header({"#", "inst", "line", "retires", "stall", "stall%",
              "load", "nonload", "res", "fe", "apipe", "defers",
              "flush", "text"});

    unsigned rank = 0;
    for (const auto &row : rec.profile) {
        if (k != 0 && rank >= k)
            break;
        if (row.prof.stallCycles() == 0)
            break; // rows are stall-sorted: nothing left to attribute
        ++rank;
        const auto cls = [&](cpu::CycleClass c) {
            return std::to_string(
                row.prof.cycles[static_cast<unsigned>(c)]);
        };
        std::uint64_t flushes = 0;
        for (std::uint64_t f : row.prof.flushes)
            flushes += f;
        t.row({std::to_string(rank), std::to_string(row.idx),
               row.srcLine < 0 ? "-" : std::to_string(row.srcLine),
               std::to_string(row.prof.retires),
               std::to_string(row.prof.stallCycles()),
               total_stall == 0
                   ? "0.0%"
                   : pct(static_cast<double>(row.prof.stallCycles()) /
                         static_cast<double>(total_stall)),
               cls(cpu::CycleClass::kLoadStall),
               cls(cpu::CycleClass::kNonLoadDepStall),
               cls(cpu::CycleClass::kResourceStall),
               cls(cpu::CycleClass::kFrontEndStall),
               cls(cpu::CycleClass::kApipeStall),
               std::to_string(row.prof.totalDefers()),
               std::to_string(flushes), row.text});
    }
    return t.render();
}

} // namespace sim
} // namespace ff
