/**
 * @file
 * Self-contained SHA-256 for content addressing (the on-disk result
 * cache keys its entries by the digest of program + configuration).
 * Implemented locally so the simulator keeps zero external
 * dependencies; this is FIPS 180-4 SHA-256, validated against the
 * published test vectors in tests/common/test_hash.cc.
 */

#ifndef FF_COMMON_HASH_HH
#define FF_COMMON_HASH_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace ff
{

/** Incremental SHA-256 hasher. */
class Sha256
{
  public:
    /** Fresh hasher in the FIPS 180-4 initial state. */
    Sha256();

    /** Absorbs @p n bytes at @p data. */
    void update(const void *data, std::size_t n);

    /** Absorbs the bytes of @p s. */
    void update(const std::string &s) { update(s.data(), s.size()); }

    /** Finalizes and returns the 32-byte digest. One-shot. */
    std::array<std::uint8_t, 32> digest();

    /**
     * Finalizes and returns the first 8 digest bytes read as a
     * little-endian integer: the 64-bit identity hashes of programs
     * and configurations. One-shot.
     */
    std::uint64_t digest64();

    /** Finalizes and returns the digest as 64 lowercase hex chars. */
    std::string hexDigest();

    /** Convenience one-shot hex digest of a buffer. */
    static std::string hex(const void *data, std::size_t n);

  private:
    void compress(const std::uint8_t *block);

    std::array<std::uint32_t, 8> _h;
    std::array<std::uint8_t, 64> _block;
    std::uint64_t _totalBytes = 0;
    std::size_t _blockFill = 0;
    bool _finalized = false;
};

} // namespace ff

#endif // FF_COMMON_HASH_HH
