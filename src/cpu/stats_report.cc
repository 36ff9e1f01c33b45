#include "cpu/stats_report.hh"

namespace ff
{
namespace cpu
{

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

std::string
commonStatsReport(const CycleAccounting &acct,
                  const branch::PredictorStats &branches,
                  const memory::AccessStats &accesses)
{
    std::map<std::string, std::uint64_t> cyc;
    for (unsigned i = 0; i < kNumCycleClasses; ++i)
        cyc[cycleClassName(static_cast<CycleClass>(i))] = acct.counts[i];
    cyc["total"] = acct.total();

    std::map<std::string, std::uint64_t> mem;
    static const char *kWho[] = {"base", "apipe", "bpipe", "runahead"};
    for (unsigned w = 0; w < memory::kNumInitiators; ++w) {
        for (unsigned l = 0; l < memory::kNumMemLevels; ++l) {
            const auto c = accesses.counts[w][l];
            if (c == 0)
                continue;
            const std::string base =
                std::string(kWho[w]) + "." +
                memory::memLevelName(
                    static_cast<memory::MemLevel>(l));
            mem[base + ".accesses"] = c;
            mem[base + ".cycles"] = accesses.weightedCycles[w][l];
        }
    }
    return statLines("cycles", cyc) +
           statLines("branch", {{"lookups", branches.lookups},
                                {"mispredicts", branches.mispredicts}}) +
           statLines("mem", mem);
}

} // namespace cpu
} // namespace ff
