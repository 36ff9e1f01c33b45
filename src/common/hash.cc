#include "common/hash.hh"

#include <cstring>

#include "common/logging.hh"

namespace ff
{

namespace
{

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline std::uint32_t
rotr(std::uint32_t v, unsigned n)
{
    return (v >> n) | (v << (32 - n));
}

} // namespace

Sha256::Sha256()
    : _h{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
         0x9b05688c, 0x1f83d9ab, 0x5be0cd19}
{
    _block.fill(0);
}

void
Sha256::compress(const std::uint8_t *block)
{
    std::uint32_t w[64];
    for (unsigned i = 0; i < 16; ++i) {
        w[i] = static_cast<std::uint32_t>(block[4 * i]) << 24 |
               static_cast<std::uint32_t>(block[4 * i + 1]) << 16 |
               static_cast<std::uint32_t>(block[4 * i + 2]) << 8 |
               static_cast<std::uint32_t>(block[4 * i + 3]);
    }
    for (unsigned i = 16; i < 64; ++i) {
        const std::uint32_t s0 = rotr(w[i - 15], 7) ^
                                 rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
        const std::uint32_t s1 = rotr(w[i - 2], 17) ^
                                 rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = _h[0], b = _h[1], c = _h[2], d = _h[3];
    std::uint32_t e = _h[4], f = _h[5], g = _h[6], h = _h[7];
    for (unsigned i = 0; i < 64; ++i) {
        const std::uint32_t s1 =
            rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        const std::uint32_t ch = (e & f) ^ (~e & g);
        const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
        const std::uint32_t s0 =
            rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        const std::uint32_t t2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }
    _h[0] += a;
    _h[1] += b;
    _h[2] += c;
    _h[3] += d;
    _h[4] += e;
    _h[5] += f;
    _h[6] += g;
    _h[7] += h;
}

void
Sha256::update(const void *data, std::size_t n)
{
    ff_panic_if(_finalized, "Sha256 update after digest");
    const auto *p = static_cast<const std::uint8_t *>(data);
    _totalBytes += n;
    while (n > 0) {
        const std::size_t room = 64 - _blockFill;
        const std::size_t chunk = n < room ? n : room;
        std::memcpy(_block.data() + _blockFill, p, chunk);
        _blockFill += chunk;
        p += chunk;
        n -= chunk;
        if (_blockFill == 64) {
            compress(_block.data());
            _blockFill = 0;
        }
    }
}

std::array<std::uint8_t, 32>
Sha256::digest()
{
    ff_panic_if(_finalized, "Sha256 digest is one-shot");
    _finalized = true;

    const std::uint64_t bits = _totalBytes * 8;
    _block[_blockFill++] = 0x80;
    if (_blockFill > 56) {
        std::memset(_block.data() + _blockFill, 0, 64 - _blockFill);
        compress(_block.data());
        _blockFill = 0;
    }
    std::memset(_block.data() + _blockFill, 0, 56 - _blockFill);
    for (unsigned i = 0; i < 8; ++i)
        _block[56 + i] =
            static_cast<std::uint8_t>(bits >> (56 - 8 * i));
    compress(_block.data());

    std::array<std::uint8_t, 32> out;
    for (unsigned i = 0; i < 8; ++i) {
        out[4 * i] = static_cast<std::uint8_t>(_h[i] >> 24);
        out[4 * i + 1] = static_cast<std::uint8_t>(_h[i] >> 16);
        out[4 * i + 2] = static_cast<std::uint8_t>(_h[i] >> 8);
        out[4 * i + 3] = static_cast<std::uint8_t>(_h[i]);
    }
    return out;
}

std::uint64_t
Sha256::digest64()
{
    const std::array<std::uint8_t, 32> d = digest();
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(d[i]) << (8 * i);
    return v;
}

std::string
Sha256::hexDigest()
{
    static const char kHex[] = "0123456789abcdef";
    const std::array<std::uint8_t, 32> d = digest();
    std::string s;
    s.reserve(64);
    for (const std::uint8_t b : d) {
        s.push_back(kHex[b >> 4]);
        s.push_back(kHex[b & 0xf]);
    }
    return s;
}

std::string
Sha256::hex(const void *data, std::size_t n)
{
    Sha256 h;
    h.update(data, n);
    return h.hexDigest();
}

} // namespace ff
