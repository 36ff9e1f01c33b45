#include "memory/sparse_memory.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "common/logging.hh"

namespace ff
{
namespace memory
{

const SparseMemory::Page *
SparseMemory::findPage(Addr a) const
{
    auto it = _pages.find(a / kPageBytes);
    return it == _pages.end() ? nullptr : it->second.get();
}

SparseMemory::Page &
SparseMemory::pageFor(Addr a)
{
    std::shared_ptr<Page> &slot = _pages[a / kPageBytes];
    if (slot == nullptr) {
        slot = std::make_shared<Page>();
    } else if (slot.use_count() > 1) {
        // Copy-on-write: the page is shared with the program image, a
        // checkpoint or another machine's copy; clone before mutating.
        slot = std::make_shared<Page>(slot->bytes);
    } else {
        // Unshared, so no other thread can be reading the memo.
        slot->memoValid.store(false, std::memory_order_relaxed);
    }
    return *slot;
}

std::uint8_t
SparseMemory::readByte(Addr a) const
{
    const Page *p = findPage(a);
    return p ? p->bytes[a % kPageBytes] : 0;
}

void
SparseMemory::writeByte(Addr a, std::uint8_t v)
{
    pageFor(a).bytes[a % kPageBytes] = v;
}

// A value's bytes are its little-endian encoding, so an in-page
// access copies them straight between the page and the value.
static_assert(std::endian::native == std::endian::little,
              "SparseMemory copies values in host byte order");

std::uint64_t
SparseMemory::read(Addr a, unsigned size) const
{
    ff_panic_if(size > 8, "oversized memory read");
    // Fast path: the access stays inside one page, so one page lookup
    // and one copy serve every byte (the byte loop below costs a hash
    // probe per byte, and this is the simulator-wide load path).
    if (size > 0 && a / kPageBytes == (a + size - 1) / kPageBytes) {
        const Page *p = findPage(a);
        if (p == nullptr)
            return 0;
        const std::uint8_t *b = p->bytes.data() + a % kPageBytes;
        // Timed loads are 8 or 4 bytes: a fixed-width copy is one
        // load, where a variable-width one is a call or a loop.
        if (size == 8) {
            std::uint64_t v;
            std::memcpy(&v, b, 8);
            return v;
        }
        if (size == 4) {
            std::uint32_t v;
            std::memcpy(&v, b, 4);
            return v;
        }
        std::uint64_t v = 0;
        std::memcpy(&v, b, size);
        return v;
    }
    std::uint64_t v = 0;
    for (unsigned i = 0; i < size; ++i)
        v |= static_cast<std::uint64_t>(readByte(a + i)) << (8 * i);
    return v;
}

void
SparseMemory::write(Addr a, std::uint64_t v, unsigned size)
{
    ff_panic_if(size > 8, "oversized memory write");
    if (size > 0 && a / kPageBytes == (a + size - 1) / kPageBytes) {
        std::uint8_t *b = &pageFor(a).bytes[a % kPageBytes];
        if (size == 8) {
            std::memcpy(b, &v, 8);
        } else if (size == 4) {
            const auto w = static_cast<std::uint32_t>(v);
            std::memcpy(b, &w, 4);
        } else {
            std::memcpy(b, &v, size);
        }
        return;
    }
    for (unsigned i = 0; i < size; ++i)
        writeByte(a + i, static_cast<std::uint8_t>(v >> (8 * i)));
}

void
SparseMemory::writeBytes(Addr a, const void *src, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(src);
    while (len > 0) {
        const std::size_t off = a % kPageBytes;
        const std::size_t chunk = std::min(len, kPageBytes - off);
        std::memcpy(pageFor(a).bytes.data() + off, p, chunk);
        a += chunk;
        p += chunk;
        len -= chunk;
    }
}

std::vector<Addr>
SparseMemory::sortedPageNumbers() const
{
    std::vector<Addr> page_nos;
    page_nos.reserve(_pages.size());
    for (const auto &[page_no, page] : _pages)
        page_nos.push_back(page_no);
    std::sort(page_nos.begin(), page_nos.end());
    return page_nos;
}

void
SparseMemory::save(serial::Writer &w) const
{
    w.u64(_pages.size());
    forEachPage([&w](Addr base, const std::uint8_t *bytes) {
        w.u64(base / kPageBytes);
        w.bytes(bytes, kPageBytes);
    });
}

void
SparseMemory::restore(serial::Reader &r, const SparseMemory *share)
{
    _pages.clear();
    const std::size_t n = r.seq(8 + kPageBytes);
    _pages.reserve(n);
    constexpr Addr kMaxPageNo = ~Addr{0} / kPageBytes;
    Bytes buf;
    Addr prev = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Addr page_no = r.u64();
        // save() writes strictly increasing page numbers; anything
        // else (a duplicate would silently replace a page) is corrupt.
        if (page_no > kMaxPageNo || (i > 0 && page_no <= prev)) {
            r.fail();
            return;
        }
        prev = page_no;
        r.bytes(buf.data(), kPageBytes);
        if (!r.ok())
            return;
        std::shared_ptr<Page> &slot = _pages[page_no];
        if (share != nullptr) {
            const auto it = share->_pages.find(page_no);
            if (it != share->_pages.end() && it->second->bytes == buf)
                slot = it->second;
        }
        if (slot == nullptr)
            slot = std::make_shared<Page>(buf);
    }
}

std::uint64_t
SparseMemory::Page::term(Addr page_no) const
{
    if (memoValid.load(std::memory_order_acquire))
        return memo.load(std::memory_order_relaxed);
    std::uint64_t h = 0;
    if (std::any_of(bytes.begin(), bytes.end(),
                    [](std::uint8_t b) { return b != 0; })) {
        h = 1469598103934665603ULL ^ page_no;
        for (const std::uint8_t b : bytes) {
            h ^= b;
            h *= 1099511628211ULL;
        }
    }
    // Sharers racing here compute and store the same value.
    memo.store(h, std::memory_order_relaxed);
    memoValid.store(true, std::memory_order_release);
    return h;
}

std::uint64_t
SparseMemory::fingerprint() const
{
    // Summed, so iteration order doesn't matter.
    std::uint64_t total = 0;
    for (const auto &[page_no, page] : _pages)
        total += page->term(page_no);
    return total;
}

} // namespace memory
} // namespace ff
