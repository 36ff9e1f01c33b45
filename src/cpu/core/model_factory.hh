/**
 * @file
 * The single construction path for timed CPU models. Benches, tests,
 * tools and the experiment harness name a CpuKind and get back an
 * abstract CpuModel; only this factory's translation unit knows the
 * concrete model headers. CpuKind lives here (not in sim/) so the
 * cpu layer can own the kind-to-model mapping; the sim namespace
 * re-exports it for its historical spelling (sim::CpuKind).
 */

#ifndef FF_CPU_CORE_MODEL_FACTORY_HH
#define FF_CPU_CORE_MODEL_FACTORY_HH

#include <memory>

#include "cpu/config.hh"
#include "cpu/cpu.hh"
#include "isa/program.hh"

namespace ff
{
namespace cpu
{

/** Which timed model to construct. */
enum class CpuKind
{
    kBaseline,       ///< Figure 6 "base"
    kTwoPass,        ///< Figure 6 "2P"
    kTwoPassRegroup, ///< Figure 6 "2Pre"
    kRunahead,       ///< Sec. 2 comparison model
};
inline constexpr unsigned kNumCpuKinds = 4;

/** The bench-facing short name ("base", "2P", "2Pre", "runahead"). */
const char *cpuKindName(CpuKind k);

/**
 * Builds a fresh single-shot model of @p kind over @p prog.
 * kTwoPassRegroup forces cfg.regroup on, so every caller gets the
 * same 2Pre semantics without touching its config. @p prog must
 * outlive the model (models hold a reference).
 */
std::unique_ptr<CpuModel> makeModel(CpuKind kind,
                                    const isa::Program &prog,
                                    const CoreConfig &cfg);

} // namespace cpu
} // namespace ff

#endif // FF_CPU_CORE_MODEL_FACTORY_HH
