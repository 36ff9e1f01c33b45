#include "compiler/scheduler.hh"

#include <algorithm>
#include <map>
#include <set>

#include "common/logging.hh"

namespace ff
{
namespace compiler
{

using isa::Instruction;
using isa::Program;
using isa::UnitClass;

std::vector<InstIdx>
findBlockLeaders(const Program &sequential)
{
    std::set<InstIdx> leaders;
    leaders.insert(0);
    const InstIdx n = sequential.size();
    for (InstIdx i = 0; i < n; ++i) {
        const Instruction &in = sequential.inst(i);
        if (in.isBranch()) {
            leaders.insert(static_cast<InstIdx>(in.imm));
            if (i + 1 < n)
                leaders.insert(i + 1);
        } else if (in.isHalt()) {
            if (i + 1 < n)
                leaders.insert(i + 1);
        }
    }
    return {leaders.begin(), leaders.end()};
}

namespace
{

/** Per-cycle resource occupancy during list scheduling. */
struct CycleResources
{
    unsigned total = 0;
    unsigned alu = 0;
    unsigned mem = 0;
    unsigned fp = 0;
    unsigned br = 0;

    bool
    fits(const Instruction &in, const isa::GroupLimits &lim) const
    {
        if (total + 1 > lim.issueWidth)
            return false;
        switch (in.unit()) {
          case UnitClass::kAlu:
            return alu + 1 <= lim.aluUnits;
          case UnitClass::kMem:
            return mem + 1 <= lim.memUnits;
          case UnitClass::kFp:
            return fp + 1 <= lim.fpUnits;
          case UnitClass::kBranch:
            return br + 1 <= lim.branchUnits;
        }
        return false;
    }

    void
    occupy(const Instruction &in)
    {
        ++total;
        switch (in.unit()) {
          case UnitClass::kAlu: ++alu; break;
          case UnitClass::kMem: ++mem; break;
          case UnitClass::kFp: ++fp; break;
          case UnitClass::kBranch: ++br; break;
        }
    }
};

/** Schedules one block; appends (cycle, local index) assignments. */
void
scheduleBlock(const Program &prog, InstIdx begin, InstIdx end,
              const SchedulerConfig &cfg,
              std::vector<std::pair<unsigned, InstIdx>> &out)
{
    const std::uint32_t n = end - begin;
    DepGraph graph(prog.insts(), begin, end, cfg.latencies, cfg.alias);

    std::vector<unsigned> remaining_preds(n);
    std::vector<unsigned> earliest(n, 0);
    std::vector<bool> scheduled(n, false);
    for (std::uint32_t i = 0; i < n; ++i)
        remaining_preds[i] = graph.inDegree(i);

    unsigned num_done = 0;
    unsigned cycle = 0;
    while (num_done < n) {
        CycleResources res;
        // Memory ops placed in this cycle, as (original local index,
        // is-store). Groups are emitted in original-index order, and
        // the machine forbids any memory op from following a store in
        // its group. The legacy dependence chain enforces that by
        // construction, but an alias oracle prunes those edges, so
        // group formation must re-check the slot-order rule itself.
        std::vector<std::pair<std::uint32_t, bool>> group_mem;
        auto group_admits = [&](std::uint32_t i, bool is_store) {
            for (const auto &[j, j_store] : group_mem) {
                if (j_store && j < i)
                    return false; // i would follow the store at j
                if (is_store && j > i)
                    return false; // j would follow the store at i
            }
            return true;
        };
        // Fill the cycle to fixpoint: placing an instruction releases
        // its sep-0 successors (e.g. a branch reading no results),
        // which may join the same issue group.
        for (;;) {
            std::vector<std::uint32_t> ready;
            for (std::uint32_t i = 0; i < n; ++i) {
                if (!scheduled[i] && remaining_preds[i] == 0 &&
                    earliest[i] <= cycle) {
                    ready.push_back(i);
                }
            }
            std::sort(ready.begin(), ready.end(),
                      [&](std::uint32_t a, std::uint32_t b) {
                          if (graph.height(a) != graph.height(b))
                              return graph.height(a) > graph.height(b);
                          return a < b;
                      });
            bool placed_any = false;
            for (std::uint32_t i : ready) {
                const Instruction &in = prog.inst(begin + i);
                if (!res.fits(in, cfg.limits))
                    continue;
                if (in.isMem() && !group_admits(i, in.isStore()))
                    continue;
                res.occupy(in);
                if (in.isMem())
                    group_mem.emplace_back(i, in.isStore());
                scheduled[i] = true;
                out.emplace_back(cycle, begin + i);
                ++num_done;
                placed_any = true;
                for (std::uint32_t ei : graph.succs(i)) {
                    const DepEdge &e = graph.edges()[ei];
                    --remaining_preds[e.to];
                    earliest[e.to] =
                        std::max(earliest[e.to], cycle + e.minSep);
                }
            }
            if (!placed_any)
                break;
        }
        ++cycle;
        ff_panic_if(cycle > 64u * (n + 4), "scheduler livelock in '",
                    prog.name(), "'");
    }
}

} // namespace

Program
schedule(const Program &sequential, const SchedulerConfig &cfg)
{
    std::string err = sequential.validate(cfg.limits);
    ff_panic_if(!err.empty(), "unschedulable input program '",
                sequential.name(), "': ", err);

    std::vector<InstIdx> leaders = findBlockLeaders(sequential);
    const InstIdx n = sequential.size();

    std::vector<Instruction> out;
    out.reserve(n);
    // Maps old block-leader index -> new index of the block's start.
    std::map<InstIdx, InstIdx> new_block_start;
    // Maps output position -> old index, for debugging/tests.
    for (std::size_t b = 0; b < leaders.size(); ++b) {
        const InstIdx begin = leaders[b];
        const InstIdx end =
            (b + 1 < leaders.size()) ? leaders[b + 1] : n;
        new_block_start[begin] = static_cast<InstIdx>(out.size());

        std::vector<std::pair<unsigned, InstIdx>> placement;
        scheduleBlock(sequential, begin, end, cfg, placement);
        // Emit in (cycle, original index) order; a cycle boundary
        // becomes a stop bit on the last instruction of the group.
        std::stable_sort(placement.begin(), placement.end());
        for (std::size_t k = 0; k < placement.size(); ++k) {
            Instruction in = sequential.inst(placement[k].second);
            in.stop = (k + 1 == placement.size()) ||
                      (placement[k + 1].first != placement[k].first);
            out.push_back(in);
        }
    }

    // Remap branch targets through the block-start map.
    for (Instruction &in : out) {
        if (in.isBranch()) {
            auto it = new_block_start.find(static_cast<InstIdx>(in.imm));
            ff_panic_if(it == new_block_start.end(),
                        "branch target is not a block leader after "
                        "scheduling");
            in.imm = static_cast<std::int64_t>(it->second);
        }
    }

    Program result(sequential.name(), std::move(out),
                   sequential.dataImage());

    err = result.validate(cfg.limits);
    ff_panic_if(!err.empty(), "scheduler produced invalid program '",
                result.name(), "': ", err);
    return result;
}

} // namespace compiler
} // namespace ff
