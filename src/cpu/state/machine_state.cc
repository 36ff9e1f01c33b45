#include "cpu/state/machine_state.hh"

#include <bit>

namespace ff
{
namespace cpu
{

void
MachineState::checkpointRegsToRa()
{
    using Bits = PackedBits<kNumRegSlots>;
    for (unsigned wi = 0; wi < Bits::kWords; ++wi) {
        std::uint64_t stale =
            regs.dirtyMask().word(wi) | raRegs.dirtyMask().word(wi);
        while (stale != 0) {
            const unsigned slot =
                wi * 64 + static_cast<unsigned>(std::countr_zero(stale));
            stale &= stale - 1;
            if (slot >= kNumRegSlots)
                break;
            raRegs.write(slot, regs.read(slot));
        }
    }
    regs.clearDirty();
    raRegs.clearDirty();
}

} // namespace cpu
} // namespace ff
