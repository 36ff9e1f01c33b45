/**
 * @file
 * Byte-stream serialization primitives behind every versioned binary
 * format in the repo (model snapshots, the on-disk result cache).
 * Encoding is explicit little-endian regardless of host order, so a
 * snapshot or cache entry written on one machine decodes on any
 * other.
 *
 * Writer appends into a growable byte buffer and cannot fail. Reader
 * is deliberately non-fatal: any structural problem (truncation, a
 * mismatched section tag, an implausible container size) latches a
 * sticky failure flag instead of panicking, and every subsequent read
 * returns zeros. Callers decide the policy — the snapshot layer
 * treats !ok() as a fatal simulator bug, while the result cache
 * treats it as a miss so a corrupt or stale cache file can never
 * poison an experiment.
 */

#ifndef FF_COMMON_SERIALIZE_HH
#define FF_COMMON_SERIALIZE_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace ff
{
namespace serial
{

/** Four-character section tag, e.g. tag("HIER"). */
constexpr std::uint32_t
tag(const char (&s)[5])
{
    return static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) |
           static_cast<std::uint32_t>(static_cast<unsigned char>(s[1]))
               << 8 |
           static_cast<std::uint32_t>(static_cast<unsigned char>(s[2]))
               << 16 |
           static_cast<std::uint32_t>(static_cast<unsigned char>(s[3]))
               << 24;
}

/** Append-only little-endian encoder. */
class Writer
{
  public:
    /** Appends one byte. */
    void u8(std::uint8_t v) { _buf.push_back(v); }

    /** Appends @p v as two little-endian bytes. */
    void
    u16(std::uint16_t v)
    {
        u8(static_cast<std::uint8_t>(v));
        u8(static_cast<std::uint8_t>(v >> 8));
    }

    /** Appends @p v as four little-endian bytes. */
    void
    u32(std::uint32_t v)
    {
        u16(static_cast<std::uint16_t>(v));
        u16(static_cast<std::uint16_t>(v >> 16));
    }

    /** Appends @p v as eight little-endian bytes. */
    void
    u64(std::uint64_t v)
    {
        u32(static_cast<std::uint32_t>(v));
        u32(static_cast<std::uint32_t>(v >> 32));
    }

    /** Appends @p v two's-complement, as u64(). */
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    /** Appends @p v as a single 0/1 byte. */
    void boolean(bool v) { u8(v ? 1 : 0); }

    /** Appends the IEEE-754 bit pattern of @p v (u64 layout). */
    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    /** Appends @p n raw bytes from @p p. */
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const std::uint8_t *>(p);
        _buf.insert(_buf.end(), b, b + n);
    }

    /** Appends a u64 length followed by the string bytes. */
    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    /** Marks the start of a section; Reader::section() checks it. */
    void section(std::uint32_t t) { u32(t); }

    /** The bytes written so far. */
    const std::vector<std::uint8_t> &buffer() const { return _buf; }

    /** Moves the buffer out, leaving the writer empty. */
    std::vector<std::uint8_t> take() { return std::move(_buf); }

  private:
    std::vector<std::uint8_t> _buf;
};

/** Bounds-checked little-endian decoder with a sticky failure flag. */
class Reader
{
  public:
    /** Reads from @p size bytes at @p data (not owned). */
    Reader(const std::uint8_t *data, std::size_t size)
        : _data(data), _size(size)
    {
    }

    /** Reads from @p buf (not owned; must outlive the reader). */
    explicit Reader(const std::vector<std::uint8_t> &buf)
        : Reader(buf.data(), buf.size())
    {
    }

    /** Reads one byte; 0 on failure. */
    std::uint8_t
    u8()
    {
        if (!take(1))
            return 0;
        return _data[_pos++];
    }

    /** Reads a little-endian u16. */
    std::uint16_t
    u16()
    {
        const std::uint16_t lo = u8();
        const std::uint16_t hi = u8();
        return static_cast<std::uint16_t>(lo | (hi << 8));
    }

    /** Reads a little-endian u32. */
    std::uint32_t
    u32()
    {
        const std::uint32_t lo = u16();
        const std::uint32_t hi = u16();
        return lo | (hi << 16);
    }

    /** Reads a little-endian u64. */
    std::uint64_t
    u64()
    {
        const std::uint64_t lo = u32();
        const std::uint64_t hi = u32();
        return lo | (hi << 32);
    }

    /** Reads a two's-complement i64. */
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    /** Reads a boolean byte. */
    bool boolean() { return u8() != 0; }

    /** Reads an IEEE-754 double from its u64 bit pattern. */
    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    /** Reads @p n raw bytes into @p p; zero-fills on failure. */
    void
    bytes(void *p, std::size_t n)
    {
        if (n == 0)
            return; // an empty container's data() may be null
        if (!take(n)) {
            std::memset(p, 0, n);
            return;
        }
        std::memcpy(p, _data + _pos, n);
        _pos += n;
    }

    /** Reads a length-prefixed string (see Writer::str()). */
    std::string
    str()
    {
        const std::size_t n = seq(1);
        std::string s(n, '\0');
        bytes(s.data(), n);
        return s;
    }

    /**
     * Container element count written by Writer::u64(size); fails if
     * the remaining bytes cannot possibly hold @p elem_min bytes per
     * element, so a corrupt length can never trigger a huge
     * allocation.
     */
    std::size_t
    seq(std::size_t elem_min)
    {
        const std::uint64_t n = u64();
        if (elem_min != 0 && n > remaining() / elem_min) {
            fail();
            return 0;
        }
        return static_cast<std::size_t>(n);
    }

    /** Consumes a section tag; fails (and returns false) on mismatch. */
    bool
    section(std::uint32_t expect)
    {
        if (u32() != expect)
            fail();
        return ok();
    }

    /** False once any read has failed (sticky). */
    bool ok() const { return _ok; }

    /** Latches the failure flag explicitly. */
    void fail() { _ok = false; }

    /** Bytes left to read. */
    std::size_t remaining() const { return _size - _pos; }

    /** True when every byte has been consumed. */
    bool atEnd() const { return _pos == _size; }

  private:
    bool
    take(std::size_t n)
    {
        if (!_ok || n > remaining()) {
            fail();
            return false;
        }
        return true;
    }

    const std::uint8_t *_data;
    std::size_t _size;
    std::size_t _pos = 0;
    bool _ok = true;
};

} // namespace serial
} // namespace ff

#endif // FF_COMMON_SERIALIZE_HH
