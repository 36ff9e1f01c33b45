/**
 * @file
 * ffview — offline viewer for ffpipe traces written by
 * `ffvm --trace-out`. Renders the Konata-style ASCII lane diagram by
 * default, exports the Perfetto-loadable Chrome trace-event JSON with
 * --json, and prints a one-screen event inventory with --summary.
 *
 *   ffview trace.ffpipe                    # ASCII lane diagram
 *   ffview trace.ffpipe --rows 64          # more lanes
 *   ffview trace.ffpipe --from 100         # start at dynamic id 100
 *   ffview trace.ffpipe --json out.json    # Perfetto export
 *   ffview trace.ffpipe --summary          # header + event counts
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/cli_number.hh"
#include "sim/pipe_trace.hh"

using namespace ff;

namespace
{

[[noreturn]] void
usage(const char *argv0, int exit_code)
{
    std::FILE *out = exit_code == 0 ? stdout : stderr;
    std::fprintf(
        out,
        "usage: %s <trace.ffpipe> [options]\n\noptions:\n"
        "  --rows N     lanes to render (default 32)\n"
        "  --from ID    first dynamic instruction id (default 1)\n"
        "  --width N    timeline columns per lane (default 64)\n"
        "  --json FILE  write Chrome trace-event JSON (Perfetto)\n"
        "  --summary    print the trace header and event counts\n"
        "  --help       print usage and exit\n",
        argv0);
    std::exit(exit_code);
}

void
printSummary(const sim::PipeTrace &t)
{
    std::printf("model:    %s\n", cpu::cpuKindName(t.kind));
    std::printf("program:  %s\n", t.programName.c_str());
    std::printf("hashes:   program=%016llx config=%016llx\n",
                static_cast<unsigned long long>(t.programHash),
                static_cast<unsigned long long>(t.configHash));
    std::printf("cycles:   %llu\n",
                static_cast<unsigned long long>(t.cycles));
    std::printf("events:   %llu recorded, %llu dropped\n",
                static_cast<unsigned long long>(t.events.size()),
                static_cast<unsigned long long>(t.dropped));

    std::uint64_t byKind[cpu::kNumPipeEventKinds] = {};
    for (const cpu::PipeEvent &e : t.events)
        ++byKind[static_cast<unsigned>(e.kind)];
    for (unsigned k = 0; k < cpu::kNumPipeEventKinds; ++k) {
        std::printf("  %-12s %llu\n",
                    cpu::pipeEventKindName(
                        static_cast<cpu::PipeEventKind>(k)),
                    static_cast<unsigned long long>(byKind[k]));
    }

    const std::vector<sim::PipeLifetime> lives =
        sim::buildPipeLifetimes(t.events);
    std::printf("lifetimes: %llu dynamic instructions over %llu "
                "static\n",
                static_cast<unsigned long long>(lives.size()),
                static_cast<unsigned long long>(t.text.size()));

    std::printf("engine:   %llu spans on %llu lanes\n",
                static_cast<unsigned long long>(t.engine.spans.size()),
                static_cast<unsigned long long>(
                    t.engine.lanes.size()));
    for (std::size_t l = 0; l < t.engine.lanes.size(); ++l) {
        std::uint64_t n = 0;
        for (const engine::TraceSpan &s : t.engine.spans)
            if (s.lane == l)
                ++n;
        std::printf("  %-12s %llu\n", t.engine.lanes[l].c_str(),
                    static_cast<unsigned long long>(n));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    std::string json_out;
    bool summary = false;
    unsigned rows = 32;
    unsigned width = 64;
    std::uint64_t from_id = 1;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0], 2);
            return argv[++i];
        };
        if (a == "--help" || a == "-h") {
            usage(argv[0], 0);
        } else if (a == "--rows") {
            rows = cli::parseNumber<unsigned>(a, value());
        } else if (a == "--from") {
            from_id = cli::parseNumber<std::uint64_t>(a, value());
        } else if (a == "--width") {
            width = cli::parseNumber<unsigned>(a, value());
        } else if (a == "--json") {
            json_out = value();
        } else if (a == "--summary") {
            summary = true;
        } else if (!a.empty() && a[0] == '-') {
            std::fprintf(stderr, "unknown option %s\n", a.c_str());
            usage(argv[0], 2);
        } else if (path.empty()) {
            path = a;
        } else {
            usage(argv[0], 2);
        }
    }
    if (path.empty())
        usage(argv[0], 2);

    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "ffview: cannot open '%s'\n",
                     path.c_str());
        return 1;
    }
    const std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());

    sim::PipeTrace t;
    if (!sim::decodePipeTrace(bytes, t)) {
        std::fprintf(stderr,
                     "ffview: '%s' is not a readable ffpipe trace "
                     "(truncated, corrupt, or a foreign version)\n",
                     path.c_str());
        return 1;
    }

    if (summary) {
        printSummary(t);
        return 0;
    }
    if (!json_out.empty()) {
        std::ofstream jf(json_out);
        if (!jf) {
            std::fprintf(stderr, "ffview: cannot write '%s'\n",
                         json_out.c_str());
            return 1;
        }
        jf << sim::pipeTraceToChromeJson(t);
        std::printf("ffview: wrote %s\n", json_out.c_str());
        return 0;
    }
    std::printf("%s", sim::renderPipeView(t, rows, from_id, width)
                          .c_str());
    return 0;
}
