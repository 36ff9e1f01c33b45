/**
 * @file
 * ffcheck — the static program verifier for assembled ffvm programs.
 * The flea-flicker pipeline's correctness argument rests on structural
 * invariants of the EPIC program itself (issue-group independence,
 * def-before-use, legal branch targets); ffcheck proves them before a
 * program burns simulated cycles. Version 2 is built on the shared
 * whole-program dataflow engine (analysis/dataflow.hh): reaching
 * definitions drive flow-sensitive def-before-use, value-range
 * propagation proves addresses null or misaligned, and the
 * memory-dependence analysis splits intra-group memory pairs into
 * provably-disjoint (legal), provably-overlapping (alias-store-order)
 * and unknown (conservative group-mem-order).
 *
 * Diagnostic catalog (see analysis::CheckId):
 *   - def-before-use: reads the entry pseudo-definition may reach
 *   - issue-group legality: intra-group RAW/WAW/memory-order and
 *     functional-unit oversubscription against a machine's GroupLimits
 *   - alias: store/load pairs in one group with provably overlapping
 *     byte ranges
 *   - control flow: branch targets, fall-off-the-end, halt
 *     reachability, unreachable code
 *   - predicate sanity: aliased cmp/fcmp destination pairs, non-
 *     predicate destinations, predicates read before any write
 *   - memory: statically null / provably misaligned effective
 *     addresses, including non-constant addresses with pinned low bits
 *   - reporting: peak register pressure per class
 */

#ifndef FF_ANALYSIS_FFCHECK_HH
#define FF_ANALYSIS_FFCHECK_HH

#include "analysis/diagnostics.hh"
#include "compiler/scheduler.hh"
#include "isa/program.hh"

namespace ff
{
namespace analysis
{

/**
 * Verifier version, reported in the SARIF and JSON diagnostics: bump
 * it whenever a diagnostic is added, removed or reclassified.
 */
inline constexpr std::uint32_t kFfcheckVersion = 2;

/** Knobs for one verification run. */
struct CheckOptions
{
    /** Machine resource widths groups are checked against. */
    isa::GroupLimits limits;

    /** Latencies used when rebuilding dependence edges. */
    compiler::SchedLatencies latencies;

    /** Emit the register-pressure note (kRegPressure). */
    bool reportPressure = true;
};

/**
 * Runs the full diagnostic pipeline over @p prog. Structural damage
 * that would make the later passes meaningless (register indices out
 * of range, branch targets outside the program) short-circuits the
 * run: the report then carries only the structural findings.
 */
Report check(const isa::Program &prog,
             const CheckOptions &opts = CheckOptions());

} // namespace analysis
} // namespace ff

#endif // FF_ANALYSIS_FFCHECK_HH
