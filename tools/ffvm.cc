/**
 * @file
 * ffvm — the command-line simulator driver. Assembles an ffvm .s
 * file (or builds a bundled workload), optionally runs the
 * issue-group scheduler over it, executes it on a chosen CPU model,
 * and reports results.
 *
 *   ffvm program.s                         # functional execution
 *   ffvm program.s --model 2P --schedule   # two-pass, compiler-packed
 *   ffvm program.s --model base --stats    # full statistics dump
 *   ffvm program.s --disasm                # just show the program
 *   ffvm --workload 181.mcf --model 2P --stats   # bundled benchmark
 *
 * Every option lives in the kFlags table below: the parser, --help
 * and --dump-flags are all generated from it, so the documentation
 * cannot drift from what the binary accepts (cli_help_check.sh pins
 * this in CI). Value options accept "--opt VALUE" and "--opt=VALUE";
 * options marked optional-value take only the "=" form.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/ffcheck.hh"
#include "analysis/memdep.hh"
#include "common/cli_number.hh"
#include "common/engine_trace.hh"
#include "compiler/scheduler.hh"
#include "cpu/functional/functional_cpu.hh"
#include "isa/assembler.hh"
#include "isa/disasm.hh"
#include "sim/batch.hh"
#include "sim/harness.hh"
#include "sim/pipe_trace.hh"
#include "sim/result_cache.hh"
#include "workloads/workload.hh"

using namespace ff;

namespace
{

/** What follows a flag on the command line. */
enum class ArgKind
{
    kNone,     ///< boolean switch
    kRequired, ///< --opt VALUE or --opt=VALUE
    kOptional, ///< bare switch, or --opt=VALUE
};

/** One command-line option; the single source of CLI truth. */
struct FlagSpec
{
    const char *name;    ///< including the leading dashes
    ArgKind arg;
    const char *metavar; ///< value placeholder for --help
    const char *help;
};

constexpr FlagSpec kFlags[] = {
    {"--model", ArgKind::kRequired, "KIND",
     "functional|base|2P|2Pre|runahead (default functional, or 2P "
     "when --stats/--profile/--metrics-out is given); the functional "
     "model refuses --max-cycles and the machine options --cq through "
     "--regroup"},
    {"--workload", ArgKind::kRequired, "NAME",
     "simulate a bundled Table 2 workload instead of assembling a "
     ".s file"},
    {"--scale", ArgKind::kRequired, "P",
     "workload scale percent (default 10)"},
    {"--schedule", ArgKind::kNone, nullptr,
     "run the list scheduler (issue-group packing)"},
    {"--sched-alias", ArgKind::kNone, nullptr,
     "schedule with the memory-dependence alias oracle (provably "
     "disjoint accesses reorder; implies --schedule)"},
    {"--disasm", ArgKind::kNone, nullptr,
     "print the (scheduled) program and exit"},
    {"--stats", ArgKind::kNone, nullptr,
     "print the model's full statistics dump"},
    {"--max-cycles", ArgKind::kRequired, "N",
     "simulation budget of a timed run (default 400M); a run that "
     "does not halt within it fails"},
    {"--sample", ArgKind::kRequired, "INTERVAL[:DETAIL[:WARMUP]]",
     "sampled simulation: functional checkpoints every INTERVAL "
     "retired slots, parallel detailed replay of DETAIL-slot "
     "measured windows (default INTERVAL/8) after WARMUP warm-up "
     "cycles (default max(DETAIL,512)), statistically stitched into "
     "a whole-run estimate with confidence interval"},
    {"--cq", ArgKind::kRequired, "N", "coupling queue entries"},
    {"--alat", ArgKind::kRequired, "N",
     "ALAT capacity (0 = perfect)"},
    {"--feedback", ArgKind::kRequired, "N|off",
     "B->A feedback latency"},
    {"--prefetch", ArgKind::kRequired, "N",
     "next-line prefetch degree"},
    {"--mem-lat", ArgKind::kRequired, "N", "main memory latency"},
    {"--throttle", ArgKind::kRequired, "P",
     "A-pipe deferral throttle percent"},
    {"--predictor", ArgKind::kRequired, "K",
     "gshare|bimodal|tournament"},
    {"--no-fp-units", ArgKind::kNone, nullptr,
     "A-pipe without FP units (Sec. 3.7)"},
    {"--regroup", ArgKind::kNone, nullptr,
     "dynamic regrouping on the two-pass models"},
    {"--verify", ArgKind::kOptional, "strict",
     "run the ffcheck static verifier before simulating and print "
     "its findings; strict also fails on warnings (a timed run "
     "always refuses a program with errors)"},
    {"--profile", ArgKind::kOptional, "K",
     "per-instruction stall attribution; prints the top K rows "
     "(default 20, 0 = all)"},
    {"--metrics-out", ArgKind::kRequired, "FILE",
     "write the versioned JSON metrics record (implies profile + "
     "telemetry collection)"},
    {"--pipeview", ArgKind::kOptional, "N",
     "record per-instruction lifecycle events and print the first N "
     "lanes of the ASCII pipeline diagram (default 32)"},
    {"--trace-out", ArgKind::kRequired, "FILE",
     "write the run's ffpipe trace (pipeline lifecycle events + "
     "engine spans); render with ffview, or export Perfetto JSON "
     "via ffview --json"},
    {"--cache-dir", ArgKind::kRequired, "DIR",
     "content-addressed result cache directory (also FF_CACHE_DIR); "
     "timed runs without --profile/--metrics-out/--pipeview/"
     "--trace-out hit the cache instead of re-simulating"},
    {"--dump-flags", ArgKind::kNone, nullptr,
     "print the option table (name, value kind, metavar) and exit"},
    {"--help", ArgKind::kNone, nullptr, "print usage and exit"},
};

const FlagSpec *
findFlag(const std::string &name)
{
    for (const FlagSpec &f : kFlags)
        if (name == f.name)
            return &f;
    return nullptr;
}

[[noreturn]] void
usage(const char *argv0, int exit_code)
{
    std::FILE *out = exit_code == 0 ? stdout : stderr;
    std::fprintf(out, "usage: %s <program.s> [options]\n\noptions:\n",
                 argv0);
    for (const FlagSpec &f : kFlags) {
        std::string head = f.name;
        if (f.arg == ArgKind::kRequired)
            head += std::string(" ") + f.metavar;
        else if (f.arg == ArgKind::kOptional)
            head += std::string("[=") + f.metavar + "]";
        std::fprintf(out, "  %-22s %s\n", head.c_str(), f.help);
    }
    std::fprintf(out, "\nvalue options accept --opt VALUE and "
                      "--opt=VALUE; options shown as --opt[=X] take "
                      "only the = form\n");
    std::exit(exit_code);
}

/** Machine-readable flag table for the CLI drift check. */
[[noreturn]] void
dumpFlags()
{
    for (const FlagSpec &f : kFlags) {
        const char *kind = f.arg == ArgKind::kNone ? "switch"
                           : f.arg == ArgKind::kRequired
                               ? "required"
                               : "optional";
        std::printf("%s\t%s\t%s\n", f.name, kind,
                    f.metavar != nullptr ? f.metavar : "-");
    }
    std::exit(0);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage(argv[0], 2);

    std::string path;
    std::string workload;
    int scale = 10;
    std::string model;
    bool do_schedule = false, do_disasm = false, do_stats = false;
    bool sched_alias = false;
    bool do_verify = false, verify_strict = false;
    bool do_profile = false;
    bool do_pipeview = false;
    unsigned profile_k = 20;
    unsigned pipeview_rows = 32;
    std::string metrics_out;
    std::string trace_out;
    std::uint64_t max_cycles = sim::kDefaultMaxCycles;
    bool max_cycles_set = false;
    sim::SampledOptions sopt;
    cpu::CoreConfig cfg = sim::table1Config();

    // The budget and the machine options mean nothing to the
    // functional model; the first one given names the refusal.
    std::string timed_only_flag;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.empty() || a[0] != '-') {
            if (!path.empty())
                usage(argv[0], 2);
            path = a;
            continue;
        }
        if (a == "-h")
            usage(argv[0], 0);

        // Split --name=value; look the name up in the flag table.
        const std::size_t eq = a.find('=');
        const std::string name =
            eq == std::string::npos ? a : a.substr(0, eq);
        const FlagSpec *spec = findFlag(name);
        if (spec == nullptr) {
            std::fprintf(stderr, "unknown option %s\n", name.c_str());
            usage(argv[0], 2);
        }
        std::string v;
        bool has_value = eq != std::string::npos;
        if (has_value) {
            if (spec->arg == ArgKind::kNone) {
                std::fprintf(stderr, "%s takes no value\n",
                             spec->name);
                usage(argv[0], 2);
            }
            v = a.substr(eq + 1);
        } else if (spec->arg == ArgKind::kRequired) {
            if (i + 1 >= argc)
                usage(argv[0], 2);
            v = argv[++i];
            has_value = true;
        }
        auto num = [&]() { return cli::parseNumber<unsigned>(name, v); };

        const std::string n = name;
        for (const char *t :
             {"--max-cycles", "--cq", "--alat", "--feedback", "--prefetch",
              "--mem-lat", "--throttle", "--predictor", "--no-fp-units",
              "--regroup"}) {
            if (n == t && timed_only_flag.empty())
                timed_only_flag = n;
        }
        if (n == "--help") {
            usage(argv[0], 0);
        } else if (n == "--dump-flags") {
            dumpFlags();
        } else if (n == "--model") {
            model = v;
        } else if (n == "--workload") {
            workload = v;
        } else if (n == "--scale") {
            scale = cli::parseNumber<int>(name, v);
        } else if (n == "--schedule") {
            do_schedule = true;
        } else if (n == "--sched-alias") {
            do_schedule = sched_alias = true;
        } else if (n == "--disasm") {
            do_disasm = true;
        } else if (n == "--stats") {
            do_stats = true;
        } else if (n == "--regroup") {
            cfg.regroup = true;
        } else if (n == "--verify") {
            do_verify = true;
            if (has_value) {
                if (v != "strict")
                    ff_fatal("unknown verify mode '", v, "'");
                verify_strict = true;
            }
        } else if (n == "--profile") {
            do_profile = true;
            if (has_value)
                profile_k = num();
        } else if (n == "--metrics-out") {
            metrics_out = v;
        } else if (n == "--pipeview") {
            do_pipeview = true;
            if (has_value)
                pipeview_rows = num();
        } else if (n == "--trace-out") {
            trace_out = v;
        } else if (n == "--cache-dir") {
            sim::setResultCacheDir(v);
        } else if (n == "--max-cycles") {
            max_cycles = cli::parseNumber<std::uint64_t>(name, v);
            max_cycles_set = true;
        } else if (n == "--sample") {
            sopt = sim::parseSampleSpec(name, v);
        } else if (n == "--cq") {
            cfg.couplingQueueSize = num();
        } else if (n == "--alat") {
            cfg.alatCapacity = num();
        } else if (n == "--feedback") {
            if (v == "off")
                cfg.feedbackEnabled = false;
            else
                cfg.feedbackLatency = num();
        } else if (n == "--prefetch") {
            cfg.mem.prefetchDegree = num();
        } else if (n == "--mem-lat") {
            cfg.mem.memoryLatency = num();
        } else if (n == "--throttle") {
            cfg.aPipeThrottlePercent = num();
        } else if (n == "--predictor") {
            if (v == "gshare")
                cfg.predictorKind = branch::PredictorKind::kGshare;
            else if (v == "bimodal")
                cfg.predictorKind = branch::PredictorKind::kBimodal;
            else if (v == "tournament")
                cfg.predictorKind = branch::PredictorKind::kTournament;
            else
                ff_fatal("unknown predictor '", v, "'");
        } else if (n == "--no-fp-units") {
            cfg.aPipeHasFpUnits = false;
        } else {
            // A table entry without a dispatch arm is a bug caught
            // by the cli_help_check drift test.
            ff_fatal("flag ", n, " is in the table but unhandled");
        }
    }
    if (path.empty() == workload.empty())
        usage(argv[0], 2); // exactly one program source

    sim::MetricsOptions mopt;
    // Sampled runs estimate aggregate time from replayed windows;
    // per-cycle observers (profile/telemetry/pipeview), statistics
    // dumps and traces all need one full detailed run. --metrics-out
    // stays legal with --sample: the document then carries the
    // "sampled" estimator section instead of profile/telemetry data.
    ff_fatal_if(sopt.enabled() &&
                    (do_stats || do_profile || do_pipeview ||
                     !trace_out.empty()),
                "--sample is incompatible with --stats/--profile/"
                "--pipeview/--trace-out (those need a full detailed "
                "run)");
    // The estimate always covers the whole run: the functional pass
    // runs the program to HALT, so there is no budget to honour.
    ff_fatal_if(sopt.enabled() && max_cycles_set,
                "--sample is incompatible with --max-cycles (a sampled "
                "run always estimates the whole program)");
    mopt.profile =
        do_profile || (!metrics_out.empty() && !sopt.enabled());
    mopt.telemetry = !metrics_out.empty() && !sopt.enabled();
    mopt.pipeview = do_pipeview || !trace_out.empty();
    const bool timed = do_stats || mopt.enabled() || sopt.enabled();
    ff_fatal_if(timed && model == "functional",
                "--stats/--profile/--metrics-out/--pipeview/"
                "--trace-out/--sample need a timed model (--model "
                "base|2P|2Pre|runahead)");
    if (model.empty()) {
        // Statistics and metrics only exist on timed models, so
        // asking for them picks the paper's machine rather than
        // dying on the functional default; --sample follows the same
        // convention.
        model = timed ? "2P" : "functional";
        if (sopt.enabled())
            std::fprintf(stderr, "note: --sample without --model: "
                                 "using the two-pass model (2P)\n");
        else if (timed)
            std::fprintf(stderr,
                         "note: --stats/--profile/--metrics-out/"
                         "--pipeview/--trace-out without --model: "
                         "using the two-pass model (2P)\n");
    }
    ff_fatal_if(model == "functional" && !timed_only_flag.empty(),
                timed_only_flag, " needs a timed model (--model "
                "base|2P|2Pre|runahead)");
    if (!trace_out.empty()) {
        // Start the engine recorder before program build so workload
        // construction and verification land on the timeline too.
        engine::laneName("main");
        engine::traceEnable();
    }

    isa::Program prog;
    if (!workload.empty()) {
        // Bundled workloads arrive already scheduled for the Table 1
        // widths; --schedule would be redundant but stays legal.
        prog = workloads::buildWorkload(workload, scale).program;
        path = workload;
    } else {
        std::ifstream in(path);
        ff_fatal_if(!in, "cannot open '", path, "'");
        std::stringstream buf;
        buf << in.rdbuf();
        const std::string err = isa::assemble(buf.str(), path, &prog);
        ff_fatal_if(!err.empty(), path, ": ", err);
    }

    if (do_schedule) {
        // The scheduler owns group formation: flatten whatever stop
        // bits the source carried and re-pack under the machine's
        // widths. The alias oracle prunes provably independent
        // memory-ordering constraints first when asked.
        if (sched_alias)
            prog = analysis::scheduleWithAlias(isa::sequentialize(prog));
        else
            prog = compiler::schedule(isa::sequentialize(prog));
    }
    if (do_verify) {
        analysis::CheckOptions copts;
        copts.limits = cfg.limits;
        const analysis::Report rep = analysis::check(prog, copts);
        const std::string text = analysis::render(rep, path);
        if (!text.empty())
            std::fputs(text.c_str(), stderr);
        if (!rep.clean(verify_strict)) {
            std::fprintf(stderr,
                         "%s: verification failed (%u errors, "
                         "%u warnings)%s\n",
                         path.c_str(), rep.errors(), rep.warnings(),
                         do_schedule ? ""
                                     : " (hint: --schedule forms "
                                       "legal issue groups)");
            return 1;
        }
    }
    {
        const std::string verr = prog.validate(cfg.limits);
        ff_fatal_if(!verr.empty(), path, ": ", verr,
                    do_schedule ? ""
                                : " (hint: try --schedule to form "
                                  "legal issue groups)");
    }

    if (do_disasm) {
        std::printf("%s", isa::disasmProgram(prog).c_str());
        return 0;
    }

    if (model == "functional") {
        cpu::FunctionalCpu cpu(prog);
        const auto r = cpu.run();
        std::printf("halted=%d instructions=%llu groups=%llu "
                    "branches=%llu loads=%llu stores=%llu\n",
                    r.halted ? 1 : 0,
                    static_cast<unsigned long long>(r.instsExecuted),
                    static_cast<unsigned long long>(r.groupsExecuted),
                    static_cast<unsigned long long>(
                        r.branchesExecuted),
                    static_cast<unsigned long long>(r.loadsExecuted),
                    static_cast<unsigned long long>(r.storesExecuted));
        std::printf("checksum[0x100]=%llu\n",
                    static_cast<unsigned long long>(
                        cpu.mem().read64(0x100)));
        return r.halted ? 0 : 1;
    }

    sim::CpuKind kind;
    if (model == "base")
        kind = sim::CpuKind::kBaseline;
    else if (model == "2P")
        kind = sim::CpuKind::kTwoPass;
    else if (model == "2Pre")
        kind = sim::CpuKind::kTwoPassRegroup;
    else if (model == "runahead")
        kind = sim::CpuKind::kRunahead;
    else
        ff_fatal("unknown model '", model, "'");

    // Every timed run is one batch job: it passes the ffcheck wall,
    // fails if it does not halt within the budget, and is answered
    // from the result cache unless it is metered.
    sim::SimJob job;
    job.program = &prog;
    job.kind = kind;
    job.cfg = cfg;
    job.maxCycles = max_cycles;
    job.metrics = mopt;
    job.sampled = sopt;
    sim::SimOutcome out =
        std::move(sim::runBatch(std::span(&job, 1)).front());

    if (out.sampled != nullptr) {
        const sim::SampledEstimate &e = *out.sampled;
        std::printf("model=%s sampled halted=%d cycles~%llu "
                    "instructions=%llu ipc=%.3f +/- %.3f (95%% CI)\n",
                    model.c_str(), out.run.halted ? 1 : 0,
                    static_cast<unsigned long long>(out.run.cycles),
                    static_cast<unsigned long long>(
                        out.run.instsRetired),
                    e.ipcMean, e.ipcCi95);
        std::printf(
            "sampling: intervals=%llu measured=%llu spacing=%llu "
            "detail=%llu warmup=%llu coverage=%.1f%%\n",
            static_cast<unsigned long long>(e.intervalsTotal),
            static_cast<unsigned long long>(e.intervalsMeasured),
            static_cast<unsigned long long>(e.spacing),
            static_cast<unsigned long long>(e.options.detailCycles),
            static_cast<unsigned long long>(e.options.warmupCycles),
            e.totalInsts == 0
                ? 0.0
                : 100.0 * static_cast<double>(e.sampledInsts) /
                      static_cast<double>(e.totalInsts));
    } else {
        std::printf("model=%s halted=%d cycles=%llu "
                    "instructions=%llu ipc=%.3f\n",
                    model.c_str(), out.run.halted ? 1 : 0,
                    static_cast<unsigned long long>(out.run.cycles),
                    static_cast<unsigned long long>(
                        out.run.instsRetired),
                    out.run.ipc());
    }
    std::printf("stalls: %s\n", out.cycles.render().c_str());
    std::printf("checksum[0x100]=%llu\n",
                static_cast<unsigned long long>(out.checksum));
    if (do_stats)
        std::printf("\n%s", sim::statsReport(out).c_str());
    if (do_profile) {
        std::printf("\nstall attribution (top %u)\n%s", profile_k,
                    sim::renderProfileTable(*out.metrics, profile_k)
                        .c_str());
    }
    if (!metrics_out.empty()) {
        std::ofstream mf(metrics_out);
        ff_fatal_if(!mf, "cannot write '", metrics_out, "'");
        mf << sim::metricsToJson(out, cfg, path);
        std::printf("metrics: wrote %s\n", metrics_out.c_str());
    }
    if (mopt.pipeview) {
        const std::uint64_t dropped = out.metrics->pipeDropped;
        sim::PipeTrace pt =
            sim::buildPipeTrace(prog, cfg, kind, out.run.cycles,
                                sim::takePipeEvents(out), dropped, path);
        if (!trace_out.empty()) {
            pt.engine = engine::traceStop();
            const std::vector<std::uint8_t> bytes =
                sim::encodePipeTrace(pt);
            std::ofstream tf(trace_out, std::ios::binary);
            ff_fatal_if(!tf, "cannot write '", trace_out, "'");
            tf.write(reinterpret_cast<const char *>(bytes.data()),
                     static_cast<std::streamsize>(bytes.size()));
            std::printf("trace: wrote %s (%llu events, %llu engine "
                        "spans)\n",
                        trace_out.c_str(),
                        static_cast<unsigned long long>(
                            pt.events.size()),
                        static_cast<unsigned long long>(
                            pt.engine.spans.size()));
        }
        if (do_pipeview) {
            std::printf("\n%s",
                        sim::renderPipeView(pt, pipeview_rows).c_str());
        }
    }
    if (sim::resultCacheEnabled()) {
        const sim::ResultCacheStats cs = sim::resultCacheStats();
        std::printf("cache: hits=%llu misses=%llu\n",
                    static_cast<unsigned long long>(cs.hits),
                    static_cast<unsigned long long>(cs.misses));
    }
    return out.run.halted ? 0 : 1;
}
