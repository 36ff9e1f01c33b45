/**
 * @file
 * Dependence analysis over a basic block of ffvm instructions, used
 * by the list scheduler to form issue groups. Edges carry a minimum
 * cycle separation: RAW edges carry the producer's assumed latency,
 * WAW and memory-ordering edges carry 1 (different groups), and WAR
 * edges carry 0 (same group is legal under EPIC read-before-group
 * semantics).
 */

#ifndef FF_COMPILER_DEPGRAPH_HH
#define FF_COMPILER_DEPGRAPH_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"

namespace ff
{
namespace compiler
{

/** Alias verdict for a pair of memory accesses. */
enum class AliasResult : std::uint8_t
{
    kMustNotAlias, ///< byte ranges provably never overlap
    kMayAlias,     ///< unknown: keep conservative ordering
    kMustAlias,    ///< byte ranges provably overlap
};

/**
 * Abstract memory-disambiguation interface the dependence graph
 * consults to prune memory-ordering edges. Implemented by
 * analysis::MemDep; declared here so the compiler layer needs no
 * dependence on the analysis library. Queries use program-wide
 * instruction indices; a must-not-alias answer for two accesses in
 * the same basic block licenses reordering them.
 */
class AliasOracle
{
  public:
    virtual ~AliasOracle() = default;

    /** Alias relation between memory instructions @p a and @p b. */
    virtual AliasResult alias(InstIdx a, InstIdx b) const = 0;
};

/**
 * Latencies the compiler *assumes* when spacing dependent
 * instructions — notably the load latency, which it optimistically
 * sets to the L1 hit time (the central premise of the paper: the
 * static schedule capitalizes on hits and eats stalls on misses).
 */
struct SchedLatencies
{
    unsigned loadLatency = 2; ///< assumed (L1-hit) load-use latency

    /** Assumed producer-to-consumer latency for @p in. */
    unsigned
    latencyOf(const isa::Instruction &in) const
    {
        if (in.isLoad())
            return loadLatency;
        return in.execLatency();
    }
};

/** Why a dependence edge exists (for scheduling and diagnostics). */
enum class DepKind : std::uint8_t
{
    kRaw,      ///< read-after-write through a register
    kWaw,      ///< write-after-write to the same register
    kWar,      ///< write-after-read (same group is legal)
    kMemOrder, ///< conservative memory ordering against a store
    kControl,  ///< ordering against block-terminating control flow
};

/** One dependence edge between instructions of a block. */
struct DepEdge
{
    std::uint32_t from;   ///< producer, index local to the block
    std::uint32_t to;     ///< consumer, index local to the block
    unsigned minSep;      ///< minimum cycle separation (0 = same group)
    DepKind kind = DepKind::kControl; ///< why the edge exists
    isa::RegId reg;       ///< carrying register for RAW/WAW/WAR edges
};

/**
 * Dependence graph over one basic block. Indices are local (0 is the
 * block's first instruction).
 */
class DepGraph
{
  public:
    /**
     * Builds the graph for instructions [begin, end) of @p insts.
     * Memory ordering is conservative: stores order against all other
     * memory operations; loads may reorder freely with loads. Every
     * instruction is ordered no later than a block-terminating branch.
     *
     * With a non-null @p oracle, memory-ordering edges whose two
     * accesses the oracle proves must-not-alias are omitted, so
     * independent loads hoist across stores. The oracle's indices are
     * program-wide (@p begin + local index). Without an oracle the
     * edge set is exactly the legacy conservative chain.
     */
    DepGraph(const std::vector<isa::Instruction> &insts,
             std::uint32_t begin, std::uint32_t end,
             const SchedLatencies &lat,
             const AliasOracle *oracle = nullptr);

    std::uint32_t size() const { return _n; }

    const std::vector<DepEdge> &edges() const { return _edges; }

    /** Outgoing edges of local instruction @p i. */
    const std::vector<std::uint32_t> &succs(std::uint32_t i) const
    {
        return _succ[i];
    }

    /** Number of incoming edges of @p i (for topological release). */
    unsigned inDegree(std::uint32_t i) const { return _inDegree[i]; }

    /**
     * Critical-path height of @p i : longest separation-weighted path
     * from i to any sink. Used as list-scheduling priority.
     */
    unsigned height(std::uint32_t i) const { return _height[i]; }

  private:
    void addEdge(std::uint32_t from, std::uint32_t to, unsigned sep,
                 DepKind kind, isa::RegId reg = isa::noReg());

    std::uint32_t _n;
    std::vector<DepEdge> _edges;
    std::vector<std::vector<std::uint32_t>> _succ; ///< edge indices
    std::vector<unsigned> _inDegree;
    std::vector<unsigned> _height;
};

} // namespace compiler
} // namespace ff

#endif // FF_COMPILER_DEPGRAPH_HH
