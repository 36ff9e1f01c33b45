#include "cpu/core/model_factory.hh"

#include "cpu/baseline/baseline_cpu.hh"
#include "cpu/runahead/runahead_cpu.hh"
#include "cpu/twopass/twopass_cpu.hh"

namespace ff
{
namespace cpu
{

const char *
cpuKindName(CpuKind k)
{
    switch (k) {
      case CpuKind::kBaseline: return "base";
      case CpuKind::kTwoPass: return "2P";
      case CpuKind::kTwoPassRegroup: return "2Pre";
      case CpuKind::kRunahead: return "runahead";
    }
    return "?";
}

std::unique_ptr<CpuModel>
makeModel(CpuKind kind, const isa::Program &prog,
          const CoreConfig &cfg)
{
    switch (kind) {
      case CpuKind::kBaseline:
        return std::make_unique<BaselineCpu>(prog, cfg);
      case CpuKind::kTwoPass:
        return std::make_unique<TwoPassCpu>(prog, cfg);
      case CpuKind::kTwoPassRegroup: {
        CoreConfig regroup_cfg = cfg;
        regroup_cfg.regroup = true;
        return std::make_unique<TwoPassCpu>(prog, regroup_cfg);
      }
      case CpuKind::kRunahead:
        return std::make_unique<RunaheadCpu>(prog, cfg);
    }
    return nullptr;
}

} // namespace cpu
} // namespace ff
