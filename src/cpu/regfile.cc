#include "cpu/regfile.hh"

#include "common/logging.hh"

namespace ff
{
namespace cpu
{

std::uint64_t
RegFile::fingerprint() const
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned slot = 0; slot < kNumRegSlots; ++slot) {
        for (unsigned b = 0; b < 8; ++b) {
            h ^= static_cast<std::uint8_t>(_vals[slot] >> (8 * b));
            h *= 1099511628211ULL;
        }
    }
    return h;
}

} // namespace cpu
} // namespace ff
