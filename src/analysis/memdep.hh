/**
 * @file
 * Field-sensitive memory-dependence analysis over base+offset
 * addressing, built on reaching definitions. Every memory operation's
 * address [src1 + imm] is resolved to a symbolic form
 *
 *     base-origin + displacement
 *
 * where the origin is either an absolute constant or the unique
 * instruction whose write supplies the base register (chased through
 * mov/movi/add-immediate copy chains). Two accesses with the *same*
 * origin compare by byte interval — disjoint [disp, disp+size) means
 * must-not-alias, identical overlap means must-alias — which is what
 * makes distinct fields off one base pointer independent.
 *
 * Soundness of must-not-alias: constant origins are absolute
 * program-wide facts. Instruction origins are only meaningful when
 * both accesses observe the same dynamic instance of the defining
 * write; alias() therefore reports kMayAlias for instruction-origin
 * pairs in *different* basic blocks, and within one block the unique
 * reaching def guarantees both uses read the same value (any
 * intervening redefinition would itself be the nearer unique def).
 * This is exactly the contract the per-block scheduler needs.
 */

#ifndef FF_ANALYSIS_MEMDEP_HH
#define FF_ANALYSIS_MEMDEP_HH

#include <cstdint>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/reachdefs.hh"
#include "compiler/depgraph.hh"
#include "compiler/scheduler.hh"

namespace ff
{
namespace analysis
{

/** A memory address in symbolic base+displacement form. */
struct SymAddr
{
    bool valid = false;   ///< resolution succeeded
    bool isConst = false; ///< origin is an absolute constant
    InstIdx origin = kInvalidInstIdx; ///< defining inst (non-const)
    std::uint64_t disp = 0; ///< byte displacement (absolute if const)
};

/** Whole-program memory-dependence / alias analysis. */
class MemDep : public compiler::AliasOracle
{
  public:
    /** Builds symbolic addresses for every memory operation of
     *  @p cfg's program, using @p rd for base resolution. */
    MemDep(const Cfg &cfg, const ReachingDefs &rd);

    /** Access size in bytes of memory instruction @p i. */
    static unsigned accessBytes(const isa::Instruction &in);

    /** Alias relation between memory instructions @p a and @p b.
     *  Must-not-alias is sound program-wide for constant origins and
     *  within a basic block for instruction origins. */
    compiler::AliasResult alias(InstIdx a, InstIdx b) const override;

  private:
    SymAddr resolveBase(InstIdx at, isa::RegId reg, int depth,
                        std::size_t useBlock) const;

    const Cfg &_cfg;
    const ReachingDefs &_rd;
    std::vector<SymAddr> _addr; ///< per-instruction symbolic address
};

/**
 * Convenience driver for alias-aware scheduling: runs reaching
 * definitions and memory dependence over @p sequential and schedules
 * it with the oracle plugged in. With @p cfg.alias already set the
 * caller's oracle wins. Produces bit-identical output to plain
 * compiler::schedule whenever no memory edge is prunable.
 */
isa::Program scheduleWithAlias(
    const isa::Program &sequential,
    const compiler::SchedulerConfig &cfg = compiler::SchedulerConfig());

} // namespace analysis
} // namespace ff

#endif // FF_ANALYSIS_MEMDEP_HH
