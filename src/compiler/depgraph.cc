#include "compiler/depgraph.hh"

#include <algorithm>

#include "common/logging.hh"

namespace ff
{
namespace compiler
{

using isa::Instruction;
using isa::RegClass;
using isa::RegId;
using isa::regSlot;

DepGraph::DepGraph(const std::vector<Instruction> &insts,
                   std::uint32_t begin, std::uint32_t end,
                   const SchedLatencies &lat,
                   const AliasOracle *oracle)
{
    ff_panic_if(end < begin, "bad block range");
    _n = end - begin;
    _succ.assign(_n, {});
    _inDegree.assign(_n, 0);
    _height.assign(_n, 0);

    // Last writer / readers since that writer, per register slot.
    std::vector<std::int32_t> last_writer(isa::kNumRegSlots, -1);
    std::vector<std::vector<std::uint32_t>> readers(isa::kNumRegSlots);

    std::int32_t last_store = -1;
    std::int32_t last_mem = -1; // most recent memory op of any kind
    // Oracle path only: every older memory op, for pairwise checks.
    // The legacy chain relies on transitivity (each mem op orders
    // behind the previous), which pruning individual edges breaks, so
    // alias-aware ordering must test all pairs explicitly.
    std::vector<std::uint32_t> older_mem;

    for (std::uint32_t li = 0; li < _n; ++li) {
        const Instruction &in = insts[begin + li];

        std::array<RegId, 4> srcs;
        unsigned ns = in.sources(srcs);
        for (unsigned s = 0; s < ns; ++s) {
            int slot = regSlot(srcs[s]);
            if (slot < 0)
                continue;
            // Hardwired always-zero/true registers carry no deps.
            if (srcs[s].idx == 0)
                continue;
            if (last_writer[slot] >= 0) {
                const Instruction &prod = insts[begin + last_writer[slot]];
                addEdge(static_cast<std::uint32_t>(last_writer[slot]), li,
                        std::max(1u, lat.latencyOf(prod)),
                        DepKind::kRaw, srcs[s]);
            }
            readers[slot].push_back(li);
        }

        std::array<RegId, 2> dsts;
        unsigned nd = in.destinations(dsts);
        for (unsigned d = 0; d < nd; ++d) {
            int slot = regSlot(dsts[d]);
            if (slot < 0)
                continue;
            if (last_writer[slot] >= 0 &&
                last_writer[slot] != static_cast<std::int32_t>(li)) {
                // WAW: one cycle apart at minimum. A same-instruction
                // repeat (aliased cmp destination pair) is not an
                // ordering constraint — the verifier reports it as a
                // predicate-sanity error instead.
                addEdge(static_cast<std::uint32_t>(last_writer[slot]), li,
                        1, DepKind::kWaw, dsts[d]);
            }
            for (std::uint32_t r : readers[slot]) {
                if (r != li) {
                    // WAR: same group is fine.
                    addEdge(r, li, 0, DepKind::kWar, dsts[d]);
                }
            }
            readers[slot].clear();
            last_writer[slot] = static_cast<std::int32_t>(li);
        }

        if (in.isMem()) {
            if (oracle != nullptr) {
                // Pairwise ordering against every older memory op the
                // oracle cannot prove independent. Stores conflict
                // with any older access; loads only with older stores.
                for (std::uint32_t j : older_mem) {
                    const Instruction &old = insts[begin + j];
                    if (!in.isStore() && !old.isStore())
                        continue; // load/load never orders
                    if (oracle->alias(begin + j, begin + li) ==
                        AliasResult::kMustNotAlias) {
                        continue;
                    }
                    addEdge(j, li, 1, DepKind::kMemOrder);
                }
                older_mem.push_back(li);
            } else if (in.isStore()) {
                // Stores order behind every older memory operation.
                if (last_mem >= 0) {
                    addEdge(static_cast<std::uint32_t>(last_mem), li, 1,
                            DepKind::kMemOrder);
                }
                last_store = static_cast<std::int32_t>(li);
            } else {
                // Loads order behind older stores only.
                if (last_store >= 0) {
                    addEdge(static_cast<std::uint32_t>(last_store), li, 1,
                            DepKind::kMemOrder);
                }
            }
            if (oracle == nullptr) {
                last_mem = static_cast<std::int32_t>(li);
            }
        }

        // Block-terminating control: everything precedes the branch
        // or halt (separation 0 -- may share its final group).
        if (in.isBranch() || in.isHalt()) {
            for (std::uint32_t j = 0; j < li; ++j)
                addEdge(j, li, 0, DepKind::kControl);
        }
    }

    // Heights by reverse topological sweep. Edges always go from a
    // lower local index to a higher one, so a reverse index sweep is a
    // valid reverse-topological order.
    for (std::uint32_t i = _n; i-- > 0;) {
        unsigned h = 0;
        for (std::uint32_t ei : _succ[i]) {
            const DepEdge &e = _edges[ei];
            h = std::max(h, _height[e.to] + std::max(e.minSep, 0u));
        }
        _height[i] = h;
    }
}

void
DepGraph::addEdge(std::uint32_t from, std::uint32_t to, unsigned sep,
                  DepKind kind, RegId reg)
{
    ff_panic_if(from >= to, "dependence edge must go forward");
    _edges.push_back({from, to, sep, kind, reg});
    _succ[from].push_back(static_cast<std::uint32_t>(_edges.size() - 1));
    ++_inDegree[to];
}

} // namespace compiler
} // namespace ff
