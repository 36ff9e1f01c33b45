#include "sim/sampled.hh"

#include <cmath>
#include <memory>

#include "common/cli_number.hh"
#include "common/engine_trace.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "cpu/functional/functional_cpu.hh"
#include "workloads/kernels.hh"

namespace ff
{
namespace sim
{

SampledOptions
SampledOptions::normalized() const
{
    SampledOptions n = *this;
    if (!n.enabled())
        return n;
    if (n.detailCycles == 0)
        n.detailCycles = n.intervalCycles / 8 > 0
            ? n.intervalCycles / 8
            : 1;
    if (n.warmupCycles == 0) {
        // Functional warming rebuilds cache and predictor state from
        // the checkpoint's history, so the detailed warm-up only has
        // to fill the pipeline and drain warp transients — about a
        // window's worth of cycles at typical CPI (detailCycles is in
        // slots; the floor covers the front-end depth plus a few
        // memory round trips even for tiny windows).
        n.warmupCycles = n.detailCycles > 512 ? n.detailCycles : 512;
    }
    if (n.maxIntervals == 0)
        n.maxIntervals = 64;
    if (n.maxIntervals < 2)
        n.maxIntervals = 2; // variance needs at least two windows
    return n;
}

SampledOptions
parseSampleSpec(const std::string &flag, const std::string &text)
{
    SampledOptions o;
    std::size_t start = 0;
    for (std::uint64_t *field :
         {&o.intervalCycles, &o.detailCycles, &o.warmupCycles}) {
        const std::size_t colon = text.find(':', start);
        *field = cli::parseNumber<std::uint64_t>(
            flag, text.substr(start, colon - start));
        ff_fatal_if(*field == 0, "bad ", flag, " value '", text,
                    "' (every field must be positive)");
        if (colon == std::string::npos)
            return o;
        start = colon + 1;
    }
    ff_fatal("bad ", flag, " value '", text,
             "' (expected INTERVAL[:DETAIL[:WARMUP]])");
}

SampledPlan
sampledCheckpointPass(const isa::Program &prog,
                      const SampledOptions &opts)
{
    engine::ScopedSpan span("sample-plan");
    SampledPlan plan;
    plan.opts = opts.normalized();
    ff_panic_if(!plan.opts.enabled(),
                "sampledCheckpointPass() without sampling enabled");

    plan.spacing = plan.opts.intervalCycles;

    cpu::FunctionalCpu fcpu(prog);
    cpu::WarmHistory hist;
    fcpu.setWarmHistory(&hist);
    Rng jitter(prog.instStreamHash() ^ plan.spacing);
    cpu::FunctionalResult res;
    // Checkpoint 0 is the entry state and its replay is an *exact*
    // detailed prefix of one full stratum, not a sampled window: the
    // cold-start transient (compulsory misses, predictor training)
    // decays far too sharply for a point sample in stratum 0 to
    // carry it with useful variance. Every later stratum gets one
    // checkpoint at a uniformly jittered position — synthetic
    // kernels are strongly periodic, and a fixed grid whose spacing
    // resonates with a loop period would sample one phase offset
    // over and over (classic systematic-sampling aliasing). The
    // jitter stream is seeded from the program, so plans — and
    // therefore sampled outcomes — stay bit-reproducible.
    std::uint64_t next = 0;
    for (;;) {
        if (next > 0) {
            res = fcpu.run(next);
            if (res.halted)
                break;
        }
        if (plan.checkpoints.size() >= plan.opts.maxIntervals) {
            // Geometric thinning: double the spacing, keeping one
            // checkpoint per doubled stratum. The entry checkpoint
            // always survives — its exact prefix simply grows to the
            // doubled stratum 0, which also swallows old stratum 1,
            // so checkpoint 1 is dropped outright. Each later pair's
            // survivor is a coin flip: always keeping, say, the even
            // index would leave every surviving position jittered
            // within the *first half* of its doubled stratum, and
            // any drifting phase would be systematically
            // oversampled. The memory images are copy-on-write, so
            // a dropped checkpoint only ever cost a page-table copy
            // plus its share of warm history.
            std::vector<SampledCheckpoint> kept;
            kept.reserve(plan.checkpoints.size() / 2 + 1);
            kept.push_back(std::move(plan.checkpoints[0]));
            for (std::size_t i = 2; i < plan.checkpoints.size();
                 i += 2) {
                const std::size_t pick =
                    i + 1 < plan.checkpoints.size()
                        ? i + jitter.nextBelow(2)
                        : i;
                kept.push_back(std::move(plan.checkpoints[pick]));
            }
            plan.checkpoints.swap(kept);
            plan.spacing *= 2;
        }
        SampledCheckpoint cp;
        cp.pc = fcpu.pc();
        cp.instsBefore = res.instsExecuted;
        cp.regs = fcpu.regs();
        cp.mem = fcpu.mem();
        cp.warm = hist.snapshot();
        plan.checkpoints.push_back(std::move(cp));
        // Group granularity may overshoot a boundary; always advance
        // into the first stratum strictly ahead of the current
        // position, then jitter within it.
        const std::uint64_t stratum =
            res.instsExecuted / plan.spacing + 1;
        next = stratum * plan.spacing +
               jitter.nextBelow(plan.spacing);
    }
    plan.functional = res;
    plan.regFingerprint = fcpu.regs().fingerprint();
    plan.memFingerprint = fcpu.mem().fingerprint();
    plan.checksum = fcpu.mem().read64(workloads::kChecksumAddr);
    return plan;
}

IntervalMeasure
measureInterval(const isa::Program &prog, CpuKind kind,
                const cpu::CoreConfig &cfg, const SampledPlan &plan,
                std::size_t index)
{
    engine::ScopedSpan span("sample-replay");
    const SampledOptions &opts = plan.opts;
    const SampledCheckpoint &cp = plan.checkpoints[index];
    const bool prefix = index == 0;
    // Interval 0 is the exact cold-start prefix: a plain cold model
    // measured from the entry for one whole stratum, so the sharply
    // decaying startup transient is accounted exactly instead of
    // point-sampled. Every other interval warps a fresh model to the
    // checkpoint's architectural state and functionally warms its
    // caches and predictor from the recorded history. The warped
    // model is run directly — a snapshot round trip here would be
    // bit-identical (test_sampled verifies the warp+warm
    // fingerprints) and per-interval serialization is the kind of
    // overhead sampling exists to avoid. The warp replaces the
    // model's memory with the checkpoint's copy-on-write image: a
    // page-table copy, like the image load it supersedes.
    const std::unique_ptr<cpu::CpuModel> model =
        cpu::makeModel(kind, prog, cfg);
    if (!prefix) {
        model->warpArchState(cp.regs, cp.mem, cp.pc);
        model->warmMicroArch(cp.warm);
    }

    IntervalMeasure m;
    cpu::RunResult pre;
    if (!prefix && opts.warmupCycles > 0)
        pre = model->run(opts.warmupCycles);
    if (pre.halted) {
        // The whole program tail fit inside the warm-up: report the
        // warm-up leg as the (partial) window so the tail is counted.
        m.cycles = pre.cycles;
        m.insts = pre.instsRetired;
        m.groups = pre.groupsRetired;
        m.halted = true;
        m.classCounts = model->cycleAccounting().counts;
        return m;
    }
    const cpu::CycleAccounting warm_acct = model->cycleAccounting();

    // Measured leg: instruction-budgeted. The window ends when the
    // slot target has retired (run() budgets cycles, so chase the
    // target in chunks — each assumes the remaining slots retire at
    // the peak IPC of 2, which caps the overshoot past the slot
    // target while stall-heavy phases still converge in a
    // logarithmic number of re-arms). A fixed slot count keeps the
    // per-window CPI denominator constant: a cycle-budgeted window
    // landing in a stall-heavy phase would retire almost nothing and
    // its tiny denominator would blow up the CPI estimate. The
    // prefix's target is the full stratum width.
    const std::uint64_t target =
        prefix ? plan.spacing : opts.detailCycles;
    cpu::RunResult run = pre;
    std::uint64_t budget = pre.cycles;
    bool need_rearm = !prefix && opts.warmupCycles > 0;
    while (!run.halted &&
           run.instsRetired - pre.instsRetired < target) {
        const std::uint64_t remaining =
            target - (run.instsRetired - pre.instsRetired);
        if (need_rearm)
            model->rearmResume();
        need_rearm = true;
        budget += remaining / 2 < 16 ? 16 : remaining / 2;
        run = model->run(budget);
    }

    m.cycles = run.cycles - pre.cycles;
    m.insts = run.instsRetired - pre.instsRetired;
    m.groups = run.groupsRetired - pre.groupsRetired;
    m.halted = run.halted;
    for (unsigned c = 0; c < cpu::kNumCycleClasses; ++c) {
        m.classCounts[c] = model->cycleAccounting().counts[c] -
                           warm_acct.counts[c];
    }
    return m;
}

SimOutcome
stitchSampled(CpuKind kind, const SampledPlan &plan,
              const std::vector<IntervalMeasure> &measures)
{
    auto est = std::make_shared<SampledEstimate>();
    est->options = plan.opts;
    est->spacing = plan.spacing;
    est->intervalsTotal = measures.size();
    est->totalInsts = plan.functional.instsExecuted;

    // The estimate splits the run at the first stratum boundary:
    //
    //   cycles  =  prefix  +  (totalInsts - prefixInsts) * meanCPI
    //
    // The prefix (interval 0) is an exact detailed measurement of
    // stratum 0 from the cold entry state, so the cold-start
    // transient contributes its true cycle count. The remaining
    // strata are a systematic sample over the instruction axis:
    // full windows (those the slot budget — not HALT — ended) each
    // contribute one per-window CPI observation, and the unbiased
    // steady-state estimate is their mean (averaging per-window IPC
    // instead would overweight high-IPC phases — instruction-uniform
    // positions land in them more often per cycle of the run).
    // Partial windows still count toward the sampled totals.
    double sum = 0.0, sumsq = 0.0;
    std::array<std::uint64_t, cpu::kNumCycleClasses> prefix_classes{};
    std::array<std::uint64_t, cpu::kNumCycleClasses> rest_classes{};
    std::uint64_t rest_cycles = 0;
    for (std::size_t i = 0; i < measures.size(); ++i) {
        const IntervalMeasure &m = measures[i];
        est->sampledCycles += m.cycles;
        est->sampledInsts += m.insts;
        if (i == 0) {
            est->prefixCycles = m.cycles;
            est->prefixInsts = m.insts;
            prefix_classes = m.classCounts;
            continue;
        }
        rest_cycles += m.cycles;
        for (unsigned c = 0; c < cpu::kNumCycleClasses; ++c)
            rest_classes[c] += m.classCounts[c];
        // A full window that retired nothing has no finite CPI; it
        // can only arise from a window shorter than one load-miss
        // latency, which normalized() floors protect against.
        if (m.halted || m.insts == 0)
            continue;
        const double cpi = static_cast<double>(m.cycles) /
                           static_cast<double>(m.insts);
        sum += cpi;
        sumsq += cpi * cpi;
        ++est->intervalsMeasured;
    }

    const std::uint64_t rest_insts =
        est->totalInsts > est->prefixInsts
            ? est->totalInsts - est->prefixInsts
            : 0;
    const std::uint64_t n = est->intervalsMeasured;
    if (n > 0 && rest_insts > 0) {
        const double cpi_mean = sum / static_cast<double>(n);
        est->estimatedCycles =
            static_cast<double>(est->prefixCycles) +
            static_cast<double>(rest_insts) * cpi_mean;
        est->ipcMean = est->estimatedCycles > 0.0
            ? static_cast<double>(est->totalInsts) /
                  est->estimatedCycles
            : 0.0;
        if (n > 1) {
            const double var =
                (sumsq - sum * sum / static_cast<double>(n)) /
                static_cast<double>(n - 1);
            const double cpi_sd = var > 0.0 ? std::sqrt(var) : 0.0;
            const double cpi_se =
                cpi_sd / std::sqrt(static_cast<double>(n));
            // Only the sampled part carries estimation error: the
            // cycle-count spread is rest_insts * the CPI spread,
            // mapped to IPC space through the delta method
            // (d(T/C) = -T/C^2).
            const double dcyc_sd =
                cpi_sd * static_cast<double>(rest_insts);
            const double dcyc_se =
                cpi_se * static_cast<double>(rest_insts);
            const double j =
                est->estimatedCycles > 0.0
                    ? static_cast<double>(est->totalInsts) /
                          (est->estimatedCycles * est->estimatedCycles)
                    : 0.0;
            est->ipcStdDev = dcyc_sd * j;
            est->ipcStdErr = dcyc_se * j;
            est->ipcCi95 = 1.96 * est->ipcStdErr;
        }
    } else if (est->sampledCycles > 0 && est->sampledInsts > 0) {
        // No usable steady-state windows: either the program fit
        // inside the prefix (the measurement is exact) or every
        // window halted (the windows jointly cover the entire run).
        // Either way the overall ratio is the estimate, with no
        // sampling spread to report.
        est->ipcMean = static_cast<double>(est->sampledInsts) /
                       static_cast<double>(est->sampledCycles);
        est->estimatedCycles =
            static_cast<double>(est->totalInsts) / est->ipcMean;
    }

    SimOutcome out;
    out.kind = kind;
    out.run.halted = true; // the functional pass completed the program
    out.run.cycles =
        static_cast<Cycle>(std::llround(est->estimatedCycles));
    out.run.instsRetired = plan.functional.instsExecuted;
    out.run.groupsRetired = plan.functional.groupsExecuted;

    // Cycle-class accounting: the prefix's counts are exact; the
    // sampled windows' mix is scaled to the estimated steady-state
    // length. Rounding residue lands in kUnstalled so the classes
    // sum to the estimated cycle count.
    {
        const double rest_scale =
            rest_cycles > 0
                ? (est->estimatedCycles -
                   static_cast<double>(est->prefixCycles)) /
                      static_cast<double>(rest_cycles)
                : 0.0;
        std::uint64_t assigned = 0;
        for (unsigned c = 0; c < cpu::kNumCycleClasses; ++c) {
            out.cycles.counts[c] =
                prefix_classes[c] +
                static_cast<std::uint64_t>(std::llround(
                    static_cast<double>(rest_classes[c]) *
                    rest_scale));
            assigned += out.cycles.counts[c];
        }
        const unsigned un =
            static_cast<unsigned>(cpu::CycleClass::kUnstalled);
        if (assigned > out.run.cycles) {
            const std::uint64_t over = assigned - out.run.cycles;
            out.cycles.counts[un] -= over < out.cycles.counts[un]
                ? over
                : out.cycles.counts[un];
        } else {
            out.cycles.counts[un] += out.run.cycles - assigned;
        }
    }

    out.regFingerprint = plan.regFingerprint;
    out.memFingerprint = plan.memFingerprint;
    out.checksum = plan.checksum;
    out.sampled = std::move(est);
    return out;
}

} // namespace sim
} // namespace ff
