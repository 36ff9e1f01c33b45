/**
 * @file
 * ffstall — cross-validates the static stall predictor against the
 * in-order baseline simulator. For each program it (1) runs the
 * analytical per-block model (analysis::StallPredictor) at a chosen
 * effective load-use latency, (2) simulates the baseline core with
 * per-instruction profiling enabled, scales each block's predicted
 * bubbles by its measured execution count, and (3) reports predicted
 * vs measured load-stall cycles and the relative error.
 *
 *   ffstall --workloads               # the bundled kernel suite
 *   ffstall prog.s                    # one scheduled .s program
 *   ffstall --load-latency=4 prog.s   # non-default latency model
 *   ffstall --tolerance=15 ...        # fail if |error| exceeds 15%
 *
 * The effective load latency defaults to the L1D hit time from the
 * Table 1 machine; it is the model's one free parameter (raise it to
 * fold in misses). With --tolerance the exit status turns the check
 * into a gate: 0 when every program's prediction lands inside the
 * band, 1 otherwise, 2 on usage errors.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/memdep.hh"
#include "analysis/stallpred.hh"
#include "common/cli_number.hh"
#include "compiler/scheduler.hh"
#include "cpu/cycle_classes.hh"
#include "isa/assembler.hh"
#include "sim/harness.hh"
#include "sim/machine_config.hh"
#include "workloads/workload.hh"

using namespace ff;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--workloads] [--scale=N] [--schedule] "
                 "[--sched-alias]\n"
                 "       [--load-latency=L] [--tolerance=PCT] "
                 "<program.s>...\n"
                 "  --workloads       validate over the bundled "
                 "kernel suite\n"
                 "  --scale=N         workload scale (default 25)\n"
                 "  --schedule        schedule .s inputs before "
                 "running\n"
                 "  --sched-alias     schedule with the alias oracle "
                 "(implies --schedule)\n"
                 "  --load-latency=L  effective load-use latency for "
                 "the model\n"
                 "                    (default: the L1D hit time)\n"
                 "  --tolerance=PCT   exit nonzero when the relative "
                 "error of any\n"
                 "                    program exceeds PCT percent\n",
                 argv0);
    std::exit(2);
}

struct Options
{
    bool schedule = false;
    bool schedAlias = false;
    double loadLatency = 0; ///< 0: use the L1D hit time
    double tolerance = -1;  ///< <0: report only, never gate
};

struct Row
{
    std::string name;
    double predicted = 0;
    double measured = 0;

    double
    errorPct() const
    {
        if (measured == 0)
            return predicted == 0 ? 0 : 100.0;
        return 100.0 * (predicted - measured) / measured;
    }
};

/** Predicts and measures one program; appends its row. */
void
validate(const isa::Program &prog, const std::string &name,
         const Options &opt, std::vector<Row> &rows)
{
    const cpu::CoreConfig cfg = sim::table1Config();
    const double lat = opt.loadLatency > 0
                           ? opt.loadLatency
                           : static_cast<double>(cfg.mem.l1d.latency);

    const analysis::Cfg acfg(prog);
    analysis::StallModelOptions mopts;
    mopts.wawStall = cfg.wawStall;
    const analysis::StallPrediction pred =
        analysis::StallPredictor(acfg, mopts).predict(lat);

    sim::MetricsOptions mx;
    mx.profile = true;
    const sim::SimOutcome out = sim::simulate(
        prog, sim::CpuKind::kBaseline, cfg, sim::kDefaultMaxCycles, mx);

    // Execution count per block = retires of its first issue group
    // (the profile attributes retirement to the group leader).
    std::map<InstIdx, std::uint64_t> retires;
    if (out.metrics) {
        for (const sim::MetricsRecord::ProfileRow &r :
             out.metrics->profile)
            retires[r.idx] = r.prof.retires;
    }

    Row row;
    row.name = name;
    for (const analysis::PredictedBlock &b : pred.blocks) {
        auto it = retires.find(b.begin);
        if (it == retires.end())
            continue; // block never executed
        row.predicted +=
            b.loadStall * static_cast<double>(it->second);
    }
    row.measured = static_cast<double>(
        out.cycles.counts[static_cast<unsigned>(
            cpu::CycleClass::kLoadStall)]);
    rows.push_back(row);

    std::printf("%-12s lat=%.1f  predicted=%10.0f  measured=%10.0f"
                "  error=%+6.1f%%\n",
                name.c_str(), lat, row.predicted, row.measured,
                row.errorPct());
}

bool
runFile(const std::string &path, const Options &opt,
        std::vector<Row> &rows)
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
        std::fprintf(stderr, "%s: %s\n", path.c_str(), err.c_str());
        return false;
    }
    if (opt.schedAlias)
        prog = analysis::scheduleWithAlias(isa::sequentialize(prog));
    else if (opt.schedule)
        prog = compiler::schedule(isa::sequentialize(prog));
    validate(prog, path, opt, rows);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool do_workloads = false;
    unsigned scale = 25;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--workloads")
            do_workloads = true;
        else if (a.rfind("--scale=", 0) == 0)
            scale = cli::parseNumber<unsigned>(
                "--scale", a.substr(std::strlen("--scale=")));
        else if (a == "--schedule")
            opt.schedule = true;
        else if (a == "--sched-alias")
            opt.schedAlias = opt.schedule = true;
        else if (a.rfind("--load-latency=", 0) == 0)
            opt.loadLatency = cli::parseReal(
                "--load-latency", a.substr(std::strlen("--load-latency=")));
        else if (a.rfind("--tolerance=", 0) == 0)
            opt.tolerance = cli::parseReal(
                "--tolerance", a.substr(std::strlen("--tolerance=")));
        else if (!a.empty() && a[0] == '-')
            usage(argv[0]);
        else
            paths.push_back(a);
    }
    if (paths.empty() && !do_workloads)
        usage(argv[0]);

    std::vector<Row> rows;
    bool io_ok = true;
    if (do_workloads) {
        for (const workloads::Workload &w :
             workloads::buildAllWorkloads(scale))
            validate(w.program, w.name, opt, rows);
    }
    for (const std::string &p : paths)
        io_ok = runFile(p, opt, rows) && io_ok;
    if (!io_ok)
        return 1;

    double worst = 0;
    for (const Row &r : rows)
        worst = std::max(worst, std::abs(r.errorPct()));
    std::printf("worst |error| over %zu program%s: %.1f%%\n",
                rows.size(), rows.size() == 1 ? "" : "s", worst);
    if (opt.tolerance >= 0 && worst > opt.tolerance) {
        std::printf("FAILED: tolerance is %.1f%%\n", opt.tolerance);
        return 1;
    }
    return 0;
}
