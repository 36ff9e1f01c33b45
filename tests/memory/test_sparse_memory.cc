/** @file Unit tests for the sparse memory model. */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "memory/sparse_memory.hh"

namespace
{

using ff::Addr;
using ff::memory::SparseMemory;

TEST(SparseMemory, UntouchedReadsZero)
{
    SparseMemory m;
    EXPECT_EQ(m.readByte(0), 0);
    EXPECT_EQ(m.read64(0xDEADBEEF000), 0u);
    EXPECT_EQ(m.touchedPages(), 0u);
}

TEST(SparseMemory, ByteRoundTrip)
{
    SparseMemory m;
    m.writeByte(5, 0xAB);
    EXPECT_EQ(m.readByte(5), 0xAB);
    EXPECT_EQ(m.readByte(4), 0);
    EXPECT_EQ(m.readByte(6), 0);
}

TEST(SparseMemory, LittleEndianMultiByte)
{
    SparseMemory m;
    m.write64(0x100, 0x1122334455667788ULL);
    EXPECT_EQ(m.readByte(0x100), 0x88);
    EXPECT_EQ(m.readByte(0x107), 0x11);
    EXPECT_EQ(m.read32(0x100), 0x55667788u);
    EXPECT_EQ(m.read(0x102, 2), 0x5566u);
}

TEST(SparseMemory, CrossPageAccess)
{
    SparseMemory m;
    const Addr a = SparseMemory::kPageBytes - 3;
    m.write64(a, 0x0807060504030201ULL);
    EXPECT_EQ(m.read64(a), 0x0807060504030201ULL);
    EXPECT_EQ(m.touchedPages(), 2u);
}

TEST(SparseMemory, PartialOverwrite)
{
    SparseMemory m;
    m.write64(0x10, ~0ULL);
    m.write32(0x12, 0);
    EXPECT_EQ(m.read64(0x10), 0xFFFF00000000FFFFULL);
}

TEST(SparseMemory, FingerprintDistinguishesContent)
{
    SparseMemory a, b;
    a.write64(0x100, 1);
    b.write64(0x100, 2);
    EXPECT_NE(a.fingerprint(), b.fingerprint());
    b.write64(0x100, 1);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(SparseMemory, FingerprintIgnoresZeroPages)
{
    SparseMemory a, b;
    a.write64(0x100, 7);
    b.write64(0x100, 7);
    // Touch (but zero) an extra page in b only.
    b.writeByte(0x900000, 1);
    b.writeByte(0x900000, 0);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(SparseMemory, FingerprintIsAddressSensitive)
{
    SparseMemory a, b;
    a.write64(0x0000, 7);
    b.write64(0x9000, 7); // different page
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(SparseMemory, WriteBytesSpansPages)
{
    // A run of raw bytes lands page by page; the rest of each page it
    // touches stays zero.
    std::vector<std::uint8_t> bytes(SparseMemory::kPageBytes + 2);
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<std::uint8_t>(i % 251 + 1);
    SparseMemory m;
    m.writeBytes(10, bytes.data(), bytes.size());
    EXPECT_EQ(m.touchedPages(), 2u);
    EXPECT_EQ(m.readByte(9), 0);
    for (std::size_t i = 0; i < bytes.size(); ++i)
        ASSERT_EQ(m.readByte(10 + i), bytes[i]) << i;
    EXPECT_EQ(m.readByte(10 + bytes.size()), 0);
}

/** Five pages: two with data, an all-zero one, a pair split by one
 *  word, and a sparse pattern far up the address space. */
SparseMemory
pinnedMemory()
{
    SparseMemory m;
    m.write64(0x0, 0x0123456789abcdefULL);
    m.write64(0x100, 42);
    m.writeByte(0x1800, 1); // page 1 touched, left all zero
    m.writeByte(0x1800, 0);
    m.write64(0x2ffc, 0x1122334455667788ULL); // spans pages 2 and 3
    for (unsigned i = 0; i < 64; ++i) {
        m.writeByte(0x7fff0000 + 61 * i,
                    static_cast<std::uint8_t>(3 * i + 1));
    }
    return m;
}

TEST(SparseMemory, FingerprintIsPinned)
{
    // Stored FFRC result-cache entries hold memFingerprint values, so
    // the definition must not drift; these literals predate the
    // per-page memo.
    SparseMemory m = pinnedMemory();
    ASSERT_EQ(m.touchedPages(), 5u);
    EXPECT_EQ(m.fingerprint(), 0x8e34f7365b9b3909ULL);
    EXPECT_EQ(m.fingerprint(), 0x8e34f7365b9b3909ULL); // memoized
    m.write32(0x104, 0xdeadbeefu); // clears page 0's memo
    EXPECT_EQ(m.fingerprint(), 0x491673e4bbb7c27fULL);
    m.writeByte(0x1800, 9); // the all-zero page gains a term
    EXPECT_EQ(m.fingerprint(), 0x5e8c6acc3a1e660aULL);
}

TEST(SparseMemory, WriteBackOfOldValueRestoresFingerprint)
{
    // A write to a fingerprinted, unshared page must clear its memo:
    // a stale memo would keep the first fingerprint after the change.
    SparseMemory m = pinnedMemory();
    const std::uint64_t before = m.fingerprint();
    const std::uint8_t old = m.readByte(0x2ffe);
    m.writeByte(0x2ffe, static_cast<std::uint8_t>(old ^ 0xFF));
    EXPECT_NE(m.fingerprint(), before);
    m.writeByte(0x2ffe, old);
    EXPECT_EQ(m.fingerprint(), before);
}

TEST(SparseMemory, CopiesShareNoWrites)
{
    SparseMemory a = pinnedMemory();
    const std::uint64_t a_fp = a.fingerprint(); // memos now filled
    SparseMemory b = a;
    EXPECT_EQ(b.fingerprint(), a_fp);

    b.write64(0x100, 43);
    b.writeByte(0x1800, 9);
    EXPECT_EQ(a.read64(0x100), 42u);
    EXPECT_EQ(a.readByte(0x1800), 0);
    EXPECT_EQ(a.fingerprint(), a_fp);

    SparseMemory expect = pinnedMemory();
    expect.write64(0x100, 43);
    expect.writeByte(0x1800, 9);
    EXPECT_EQ(b.fingerprint(), expect.fingerprint());
    EXPECT_NE(b.fingerprint(), a_fp);

    a.write64(0x0, 0); // and the other way round
    EXPECT_EQ(b.read64(0x0), 0x0123456789abcdefULL);
}

std::vector<std::uint8_t>
saved(const SparseMemory &m)
{
    ff::serial::Writer w;
    m.save(w);
    return w.take();
}

TEST(SparseMemory, SaveRestoreRoundTrip)
{
    const SparseMemory m = pinnedMemory();
    const std::vector<std::uint8_t> bytes = saved(m);
    SparseMemory r;
    r.write64(0x5000, 1); // replaced wholesale
    ff::serial::Reader rd(bytes);
    r.restore(rd);
    ASSERT_TRUE(rd.ok());
    EXPECT_TRUE(rd.atEnd());
    EXPECT_EQ(r.touchedPages(), m.touchedPages());
    EXPECT_EQ(r.read64(0x5000), 0u);
    EXPECT_EQ(r.fingerprint(), m.fingerprint());
    EXPECT_EQ(saved(r), bytes);
}

TEST(SparseMemory, WritesToResharedPagesReachNeitherImageNorSource)
{
    // The source diverges from the image on page 0 only; restoring its
    // save against the image re-shares every other page.
    const SparseMemory image = pinnedMemory();
    const std::uint64_t image_fp = image.fingerprint();
    SparseMemory source = image;
    source.write64(0x8, 77);
    const std::uint64_t source_fp = source.fingerprint();
    const std::vector<std::uint8_t> bytes = saved(source);

    SparseMemory restored;
    ff::serial::Reader rd(bytes);
    restored.restore(rd, &image);
    ASSERT_TRUE(rd.ok());
    EXPECT_EQ(restored.fingerprint(), source_fp);
    EXPECT_EQ(saved(restored), bytes);

    restored.write64(0x2ffc, 5); // pages 2 and 3: re-shared
    restored.writeByte(0x7fff0001, 6);
    restored.write64(0x8, 78); // page 0: the source's own bytes
    EXPECT_EQ(image.read64(0x2ffc), 0x1122334455667788ULL);
    EXPECT_EQ(image.readByte(0x7fff0001), 0);
    EXPECT_EQ(image.fingerprint(), image_fp);
    EXPECT_EQ(source.read64(0x8), 77u);
    EXPECT_EQ(source.fingerprint(), source_fp);
    EXPECT_EQ(saved(source), bytes);
    EXPECT_EQ(restored.read64(0x2ffc), 5u);
}

/** A hand-written SMEM page table: a count, then (number, bytes). */
std::vector<std::uint8_t>
pageTable(const std::vector<std::uint64_t> &page_nos)
{
    ff::serial::Writer w;
    w.u64(page_nos.size());
    std::vector<std::uint8_t> page(SparseMemory::kPageBytes, 0x11);
    for (const std::uint64_t no : page_nos) {
        w.u64(no);
        w.bytes(page.data(), page.size());
    }
    return w.take();
}

bool
restores(const std::vector<std::uint8_t> &bytes)
{
    SparseMemory m;
    ff::serial::Reader r(bytes);
    m.restore(r);
    return r.ok();
}

TEST(SparseMemory, RestoreRejectsMalformedPageTables)
{
    EXPECT_TRUE(restores(pageTable({})));
    EXPECT_TRUE(restores(pageTable({0, 1, 7})));
    const std::uint64_t last_page = ~std::uint64_t{0} / 4096;
    EXPECT_TRUE(restores(pageTable({3, last_page})));

    EXPECT_FALSE(restores(pageTable({4, 4}))) << "duplicate";
    EXPECT_FALSE(restores(pageTable({0, 7, 7}))) << "duplicate";
    EXPECT_FALSE(restores(pageTable({7, 3}))) << "descending";
    EXPECT_FALSE(restores(pageTable({0, 9, 8}))) << "descending";
    EXPECT_FALSE(restores(pageTable({last_page + 1})))
        << "base address overflows 64 bits";
    EXPECT_FALSE(restores(pageTable({2, ~std::uint64_t{0}})))
        << "base address overflows 64 bits";
}

TEST(SparseMemory, InPageAccessesMatchBytewise)
{
    // Every size at every offset from 12 bytes below a page boundary
    // to 4 above it: in-page, straddling and in the next page. read()
    // and write() must agree with their byte-by-byte composition,
    // neighbours included, so a copy of the wrong width shows.
    const Addr boundary = 5 * SparseMemory::kPageBytes;
    const Addr lo = boundary - 16;
    const Addr hi = boundary + 16;
    for (unsigned size = 1; size <= 8; ++size) {
        for (Addr a = boundary - 12; a <= boundary + 4; ++a) {
            const std::uint64_t v =
                0x8877665544332211ULL ^ (a * 0x9E3779B97F4A7C15ULL);
            SparseMemory wide;
            SparseMemory bytewise;
            for (Addr x = lo; x < hi; ++x) {
                wide.writeByte(x, 0xA5);
                bytewise.writeByte(x, 0xA5);
            }
            wide.write(a, v, size);
            for (unsigned i = 0; i < size; ++i) {
                bytewise.writeByte(
                    a + i, static_cast<std::uint8_t>(v >> (8 * i)));
            }
            for (Addr x = lo; x < hi; ++x) {
                ASSERT_EQ(wide.readByte(x), bytewise.readByte(x))
                    << "size " << size << " at " << a << ", byte " << x;
            }
            std::uint64_t expect = 0;
            for (unsigned i = 0; i < size; ++i) {
                expect |= static_cast<std::uint64_t>(
                              bytewise.readByte(a + i))
                          << (8 * i);
            }
            EXPECT_EQ(bytewise.read(a, size), expect)
                << "size " << size << " at " << a;
        }
    }
}

TEST(SparseMemoryDeathTest, OversizedAccessPanics)
{
    SparseMemory m;
    EXPECT_DEATH(m.read(0, 9), "oversized");
    EXPECT_DEATH(m.write(0, 0, 16), "oversized");
}

} // namespace
