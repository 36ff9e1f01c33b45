/**
 * @file
 * ffcheck — the static program verifier CLI. Assembles .s files (or
 * builds the bundled workload suite) and runs the full diagnostic
 * pipeline: def-before-use, issue-group legality, control-flow and
 * predicate sanity, range-propagated memory checks and register
 * pressure. Diagnostics carry .s line numbers where the assembler
 * recorded them, and can be exported machine-readably as SARIF 2.1.0
 * or a flat JSON diagnostics array.
 *
 *   ffcheck prog.s                 # check as written (hand groups)
 *   ffcheck --schedule prog.s      # check the scheduled form
 *   ffcheck --sched-alias prog.s   # schedule with the alias oracle
 *   ffcheck --strict prog.s        # warnings also fail
 *   ffcheck --workloads            # verify the ten bundled kernels
 *   ffcheck --sarif=out.sarif p.s  # also write a SARIF log
 *   ffcheck --json[=out.json] p.s  # also write flat JSON findings
 *   ffcheck --predict-stalls p.s   # static per-block stall model
 *
 * Exit status: 0 when every program verifies, 1 when any fails,
 * 2 on usage errors.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/ffcheck.hh"
#include "analysis/memdep.hh"
#include "analysis/sarif.hh"
#include "analysis/stallpred.hh"
#include "common/cli_number.hh"
#include "compiler/scheduler.hh"
#include "isa/assembler.hh"
#include "workloads/workload.hh"

using namespace ff;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--schedule] [--sched-alias] [--strict] "
                 "[--notes] [--workloads]\n"
                 "       %*s [--sarif=FILE] [--json[=FILE]] "
                 "[--predict-stalls[=LAT]] <program.s>...\n"
                 "  --schedule        run the issue-group scheduler "
                 "before checking\n"
                 "  --sched-alias     schedule with the memory-"
                 "dependence alias oracle\n"
                 "                    (implies --schedule)\n"
                 "  --strict          treat warnings as failures\n"
                 "  --notes           also print informational notes "
                 "(register pressure)\n"
                 "  --workloads       verify the bundled workload "
                 "suite instead of files\n"
                 "  --sarif=FILE      write the findings as a SARIF "
                 "2.1.0 log\n"
                 "  --json[=FILE]     write the findings as flat JSON "
                 "(default stdout)\n"
                 "  --predict-stalls[=LAT]\n"
                 "                    print the static per-block stall "
                 "prediction at an\n"
                 "                    effective load-use latency of "
                 "LAT cycles (default 2)\n",
                 argv0, static_cast<int>(std::strlen(argv0)), "");
    std::exit(2);
}

struct Options
{
    bool schedule = false;
    bool schedAlias = false;
    bool strict = false;
    bool notes = false;
    bool sarif = false;
    bool json = false;
    bool predictStalls = false;
    double predictLat = 2.0;
    std::string sarifPath;
    std::string jsonPath; ///< empty: stdout
};

bool
writeOrPrint(const std::string &path, const std::string &text)
{
    if (path.empty() || path == "-") {
        std::fputs(text.c_str(), stdout);
        return true;
    }
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "%s: cannot write\n", path.c_str());
        return false;
    }
    out << text;
    return out.good();
}

/** Renders the static stall model's per-block table. */
std::string
renderStallPrediction(const isa::Program &prog, double lat)
{
    const analysis::Cfg cfg(prog);
    const analysis::StallPredictor pred(cfg);
    const analysis::StallPrediction p = pred.predict(lat);
    std::ostringstream oss;
    oss << "predicted stalls at effective load latency " << lat
        << ":\n";
    oss << "  block   insts      groups  cycles  load-stall  "
           "other-stall\n";
    double cycles = 0, load = 0, other = 0;
    for (const analysis::PredictedBlock &b : p.blocks) {
        char line[96];
        std::snprintf(line, sizeof(line),
                      "  %5zu   [%4u,%4u)  %6u  %6.1f  %10.1f  %11.1f\n",
                      b.block, b.begin, b.end, b.groups, b.cycles,
                      b.loadStall, b.otherStall);
        oss << line;
        cycles += b.cycles;
        load += b.loadStall;
        other += b.otherStall;
    }
    char tot[96];
    std::snprintf(tot, sizeof(tot),
                  "  total              %*s  %6.1f  %10.1f  %11.1f\n",
                  6, "", cycles, load, other);
    oss << tot;
    return oss.str();
}

/** Checks one named program; returns true if it verifies. */
bool
checkProgram(const isa::Program &prog, const std::string &label,
             const Options &opt)
{
    analysis::CheckOptions copts;
    const analysis::Report rep = analysis::check(prog, copts);
    const std::string text = analysis::render(rep, label, opt.notes);
    if (!text.empty())
        std::fputs(text.c_str(), stdout);
    bool ok = rep.clean(opt.strict);
    if (opt.sarif &&
        !writeOrPrint(opt.sarifPath, analysis::renderSarif(rep, label)))
        ok = false;
    if (opt.json &&
        !writeOrPrint(opt.jsonPath, analysis::renderJson(rep, label)))
        ok = false;
    if (opt.predictStalls) {
        std::fputs(renderStallPrediction(prog, opt.predictLat).c_str(),
                   stdout);
    }
    std::printf("%s: %s (%u error%s, %u warning%s)\n", label.c_str(),
                ok ? "ok" : "FAILED", rep.errors(),
                rep.errors() == 1 ? "" : "s", rep.warnings(),
                rep.warnings() == 1 ? "" : "s");
    return ok;
}

bool
checkFile(const std::string &path, const Options &opt)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "%s: cannot open\n", path.c_str());
        return false;
    }
    std::stringstream buf;
    buf << in.rdbuf();

    isa::Program prog;
    const std::string err = isa::assemble(buf.str(), path, &prog);
    if (!err.empty()) {
        std::printf("%s: error: [assemble] %s\n", path.c_str(),
                    err.c_str());
        std::printf("%s: FAILED (assembly error)\n", path.c_str());
        return false;
    }
    if (opt.schedAlias)
        prog = analysis::scheduleWithAlias(isa::sequentialize(prog));
    else if (opt.schedule)
        prog = compiler::schedule(isa::sequentialize(prog));
    return checkProgram(prog, path, opt);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool do_workloads = false;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--schedule")
            opt.schedule = true;
        else if (a == "--sched-alias")
            opt.schedAlias = opt.schedule = true;
        else if (a == "--strict")
            opt.strict = true;
        else if (a == "--notes")
            opt.notes = true;
        else if (a == "--workloads")
            do_workloads = true;
        else if (a.rfind("--sarif=", 0) == 0) {
            opt.sarif = true;
            opt.sarifPath = a.substr(std::strlen("--sarif="));
        } else if (a == "--json")
            opt.json = true;
        else if (a.rfind("--json=", 0) == 0) {
            opt.json = true;
            opt.jsonPath = a.substr(std::strlen("--json="));
        } else if (a == "--predict-stalls")
            opt.predictStalls = true;
        else if (a.rfind("--predict-stalls=", 0) == 0) {
            opt.predictStalls = true;
            opt.predictLat = cli::parseReal(
                "--predict-stalls",
                a.substr(std::strlen("--predict-stalls=")));
            if (opt.predictLat < 1.0)
                usage(argv[0]);
        } else if (!a.empty() && a[0] == '-')
            usage(argv[0]);
        else
            paths.push_back(a);
    }
    if (paths.empty() && !do_workloads)
        usage(argv[0]);
    // Machine-readable exports cover exactly one program per file.
    if ((opt.sarif || opt.json) &&
        (do_workloads || paths.size() != 1)) {
        std::fprintf(stderr, "%s: --sarif/--json need exactly one "
                             "input program\n",
                     argv[0]);
        return 2;
    }

    unsigned failed = 0;
    if (do_workloads) {
        // A reduced scale keeps this fast; the kernels' structure
        // (and therefore every static property) is scale-invariant.
        for (const workloads::Workload &w :
             workloads::buildAllWorkloads(25)) {
            if (!checkProgram(w.program, w.name, opt))
                ++failed;
        }
    }
    for (const std::string &p : paths) {
        if (!checkFile(p, opt))
            ++failed;
    }
    if (failed > 0) {
        std::printf("%u program%s failed verification\n", failed,
                    failed == 1 ? "" : "s");
        return 1;
    }
    return 0;
}
