/**
 * @file
 * bench_tick: raw per-cycle hot-path throughput of every timed CPU
 * model, in simulated cycles per wall-clock second. The workload is a
 * deliberately L1-resident kernel (a 4KB table walked with computable
 * indices plus ALU work), so after the first touches the memory
 * system contributes nothing and the measurement isolates the cost
 * of the machine-state tick itself: scoreboard scans, coupling-queue
 * shuffling, issue checks, observers.
 *
 * This is the gate behind the structure-of-arrays layout of
 * cpu::MachineState — CI runs it through tools/bench_smoke.sh with a
 * cycles/sec floor, and appends the record to BENCH_fig6.json so the
 * throughput trajectory accumulates alongside the sweep-engine one.
 *
 * Usage: bench_tick [--json FILE] [scale-percent]
 * (default scale 100 ~ 60k iterations per model; the smoke tests
 * pass 5)
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/cli_number.hh"
#include "compiler/scheduler.hh"
#include "isa/builder.hh"
#include "sim/batch.hh"
#include "sim/harness.hh"
#include "sim/report.hh"
#include "workloads/kernels.hh"

using namespace ff;
using workloads::P;
using workloads::R;

namespace
{

/**
 * The tick kernel: every load hits a 4KB table (well inside the 16KB
 * L1D), indices are computable single-cycle ALU chains (so the
 * A-pipe pre-executes them and the coupling queue stays busy), and
 * one conditional branch per iteration keeps the front end honest.
 */
isa::Program
buildTickKernel(int scale)
{
    constexpr Addr kTableBase = 0x0A00'0000;
    constexpr std::int64_t kEntries = 512; // 8 B each = 4 KB
    const std::int64_t iters = workloads::scaledIters(60000, scale);

    isa::ProgramBuilder b("tick");
    b.movi(R(1), static_cast<std::int64_t>(kTableBase));
    b.movi(R(3), 0x7469636bLL); // "tick"
    b.movi(R(5), iters);
    b.movi(R(31), 0);

    b.label("loop");
    workloads::rngStep(b, R(3));
    workloads::randomIndex(b, R(4), R(7), R(3), kEntries - 1, 27, 17);
    b.shli(R(4), R(4), 3);
    b.add(R(9), R(1), R(4));
    b.ld8(R(10), R(9), 0);
    b.add(R(31), R(31), R(10));
    // A short ALU tail so issue groups carry a realistic mix.
    b.xor_(R(11), R(31), R(10));
    b.shri(R(12), R(11), 3);
    b.add(R(31), R(31), R(12));
    workloads::loopBack(b, R(5), P(1), P(2), "loop");
    workloads::storeChecksumAndHalt(b, R(31), R(6));

    isa::Program prog = b.finalize();
    for (std::int64_t e = 0; e < kEntries; ++e) {
        prog.poke64(kTableBase + static_cast<Addr>(e) * 8,
                    static_cast<std::uint64_t>(e) * 0x9E37ULL + 1);
    }
    return compiler::schedule(prog);
}

} // namespace

int
main(int argc, char **argv)
{
    // Accepted for CLI uniformity with the sweep benches (the CI
    // quick-bench loop passes it); each model runs serially here.
    (void)sim::parseJobsFlag(argc, argv);
    std::string json_path;
    {
        int out = 1;
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
                json_path = argv[++i];
            else
                argv[out++] = argv[i];
        }
        argc = out;
    }
    const int scale =
        argc > 1 ? cli::parseNumber<int>("scale", argv[1]) : 100;

    std::printf("=== bench_tick: hot-path throughput on an "
                "L1-resident kernel (scale %d%%) ===\n\n", scale);

    const isa::Program prog = buildTickKernel(scale);
    const cpu::CoreConfig cfg = sim::table1Config();

    const sim::CpuKind kinds[] = {
        sim::CpuKind::kBaseline, sim::CpuKind::kTwoPass,
        sim::CpuKind::kTwoPassRegroup, sim::CpuKind::kRunahead};

    sim::TextTable t;
    t.header({"model", "cycles", "insts", "ipc", "wall-s",
              "sim-cycles/s", "traced/s"});

    std::uint64_t total_cycles = 0;
    std::uint64_t checksum = 0;
    double total_wall = 0.0;
    std::string json_rows;
    for (const sim::CpuKind kind : kinds) {
        // One throwaway run per model warms the host caches and the
        // verification-wall memo, so the timed run measures only the
        // simulation loop.
        (void)sim::simulate(prog, kind, cfg);
        const auto t0 = std::chrono::steady_clock::now();
        const sim::SimOutcome o = sim::simulate(prog, kind, cfg);
        const auto t1 = std::chrono::steady_clock::now();
        const double wall =
            std::chrono::duration<double>(t1 - t0).count();
        const double rate =
            static_cast<double>(o.run.cycles) / wall;

        if (checksum == 0)
            checksum = o.checksum;
        if (o.checksum != checksum) {
            std::fprintf(stderr,
                         "bench_tick: checksum mismatch on %s\n",
                         sim::cpuKindName(kind));
            return 1;
        }

        // A second timed pass with the pipeline tracer attached
        // prices the observer overhead; the floor-gated aggregate
        // below stays on the detached numbers.
        sim::MetricsOptions traced_opt;
        traced_opt.pipeview = true;
        const auto t2 = std::chrono::steady_clock::now();
        const sim::SimOutcome ot = sim::simulate(
            prog, kind, cfg, sim::kDefaultMaxCycles, traced_opt);
        const auto t3 = std::chrono::steady_clock::now();
        const double traced_wall =
            std::chrono::duration<double>(t3 - t2).count();
        const double traced_rate =
            static_cast<double>(ot.run.cycles) / traced_wall;
        if (ot.checksum != checksum) {
            std::fprintf(stderr,
                         "bench_tick: traced checksum mismatch on "
                         "%s\n",
                         sim::cpuKindName(kind));
            return 1;
        }

        t.row({sim::cpuKindName(kind),
               std::to_string(o.run.cycles),
               std::to_string(o.run.instsRetired),
               sim::fixed(o.run.ipc(), 3), sim::fixed(wall, 3),
               sim::fixed(rate / 1e6, 2) + "M",
               sim::fixed(traced_rate / 1e6, 2) + "M"});
        total_cycles += o.run.cycles;
        total_wall += wall;

        char row[160];
        std::snprintf(row, sizeof(row),
                      "%s    {\"model\": \"%s\", \"simCyclesPerSec\": "
                      "%.0f, \"simCyclesPerSecTraced\": %.0f}",
                      json_rows.empty() ? "" : ",\n",
                      sim::cpuKindName(kind), rate, traced_rate);
        json_rows += row;
    }

    const double agg =
        static_cast<double>(total_cycles) / total_wall;
    std::printf("%s\n", t.render().c_str());
    std::printf("[engine] %llu sim-cycles over %.2f s wall: "
                "%.3g sim-cycles/s aggregate\n",
                static_cast<unsigned long long>(total_cycles),
                total_wall, agg);

    if (!json_path.empty()) {
        std::FILE *f = std::fopen(json_path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
        std::fprintf(f,
                     "{\n"
                     "  \"bench\": \"tick\",\n"
                     "  \"scale\": %d,\n"
                     "  \"simCycles\": %llu,\n"
                     "  \"wallSeconds\": %.3f,\n"
                     "  \"simCyclesPerSec\": %.0f,\n"
                     "  \"perModel\": [\n%s\n  ]\n"
                     "}\n",
                     scale,
                     static_cast<unsigned long long>(total_cycles),
                     total_wall, agg, json_rows.c_str());
        std::fclose(f);
    }
    return 0;
}
