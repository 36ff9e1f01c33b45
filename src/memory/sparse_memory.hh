/**
 * @file
 * Byte-addressable sparse memory backing the simulated machine's
 * architectural (and, in the A-pipe, speculative) data state. Pages
 * are allocated on first touch; untouched bytes read as zero, so
 * wrong-path and pre-executed accesses to arbitrary addresses are
 * always safe (EPIC speculative loads are non-faulting).
 */

#ifndef FF_MEMORY_SPARSE_MEMORY_HH
#define FF_MEMORY_SPARSE_MEMORY_HH

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/serialize.hh"
#include "common/types.hh"

namespace ff
{
namespace memory
{

/**
 * True when the byte ranges [a, a + a_size) and [b, b + b_size) share
 * a byte. Both sizes must be non-zero. Addresses are taken modulo
 * 2^64, as SparseMemory's accessors take them: a range that runs past
 * the top of the address space continues at address 0.
 */
inline bool
rangesOverlap(Addr a, unsigned a_size, Addr b, unsigned b_size)
{
    return b - a < a_size || a - b < b_size;
}

/**
 * Sparse, zero-initialized, 64-bit address space.
 *
 * Pages are held by shared pointer and copied on write: copying a
 * SparseMemory duplicates only the page table, and the first store to
 * a shared page clones that one page. Value semantics are unchanged —
 * a copy never observes the original's later writes — but copies cost
 * O(touched pages) pointer bumps instead of O(footprint) bytes. This
 * is also the program image's format (isa::Program::dataImage()), so
 * every model and the functional reference start from a page-table
 * copy of it, and sampled checkpoints are full memory images taken
 * every few thousand instructions at the same cost.
 *
 * Each page memoizes its fingerprint() term, so a fingerprint rehashes
 * only the pages written since the last one. A page object is mapped
 * at one page number only, because its term mixes that number in.
 */
class SparseMemory
{
  public:
    /** Bytes per page, the unit of allocation and copy-on-write. */
    static constexpr Addr kPageBytes = 4096;

    /** An address space in which every byte reads as zero. */
    SparseMemory() = default;

    /** The byte at @p a (zero if its page was never written). */
    std::uint8_t readByte(Addr a) const;
    /** Stores @p v at @p a, allocating or cloning its page. */
    void writeByte(Addr a, std::uint8_t v);

    /**
     * The @p size bytes from @p a as a little-endian value, zero-
     * extended; @p size is at most 8 (more panics). An access within
     * one page is one page lookup and one copy.
     */
    std::uint64_t read(Addr a, unsigned size) const;
    /**
     * Stores the low @p size bytes of @p v at @p a, little-endian;
     * @p size is at most 8 (more panics).
     */
    void write(Addr a, std::uint64_t v, unsigned size);

    /** read(a, 8). */
    std::uint64_t read64(Addr a) const { return read(a, 8); }
    /** read(a, 4), truncated to 32 bits. */
    std::uint32_t read32(Addr a) const
    {
        return static_cast<std::uint32_t>(read(a, 4));
    }
    /** write(a, v, 8). */
    void write64(Addr a, std::uint64_t v) { write(a, v, 8); }
    /** write(a, v, 4). */
    void write32(Addr a, std::uint32_t v) { write(a, v, 4); }

    /** Copies @p len raw bytes from @p src to addresses @p a onward. */
    void writeBytes(Addr a, const void *src, std::size_t len);

    /**
     * Order-insensitive digest of the contents: the sum over touched
     * pages of an FNV-1a hash of the page's bytes seeded with its page
     * number, all-zero pages adding nothing (so they hash like
     * untouched ones). Every outcome's memFingerprint, the functional
     * reference's and stored FFRC result-cache entries hold it, so its
     * definition is frozen. Each page's term is memoized on the page,
     * filled on first use (sharers on other threads may fill it at the
     * same time) and cleared by every write to the page.
     */
    std::uint64_t fingerprint() const;

    /** Pages allocated so far (written, restored or copied in). */
    std::size_t touchedPages() const { return _pages.size(); }

    /**
     * Calls @p fn(base, bytes) for every touched page in ascending
     * address order; @p bytes points at the page's kPageBytes bytes.
     */
    template <typename Fn>
    void
    forEachPage(Fn &&fn) const
    {
        for (const Addr page_no : sortedPageNumbers())
            fn(page_no * kPageBytes, _pages.at(page_no)->bytes.data());
    }

    /**
     * Snapshot hooks. Pages are written sorted by page number so the
     * encoded bytes are deterministic; restore() replaces the entire
     * contents and fails @p r unless the page numbers strictly
     * increase and every page's base address fits in 64 bits. A
     * restored page whose bytes equal @p share's page at the same
     * number reuses that page (copy-on-write) instead of a new copy.
     */
    void save(serial::Writer &w) const;
    /** Inverse of save(); see there for @p share and the checks. */
    void restore(serial::Reader &r, const SparseMemory *share = nullptr);

  private:
    using Bytes = std::array<std::uint8_t, kPageBytes>;

    /** One page; its memo starts empty, so clones copy bytes only. */
    struct Page
    {
        Page() { bytes.fill(0); }
        explicit Page(const Bytes &b) : bytes(b) {}

        /** fingerprint()'s term for this page at @p page_no. */
        std::uint64_t term(Addr page_no) const;

        Bytes bytes;
        mutable std::atomic<std::uint64_t> memo{0};
        mutable std::atomic<bool> memoValid{false};
    };

    const Page *findPage(Addr a) const;
    /**
     * Write-path lookup: allocates or clones so the page is unique,
     * and clears its fingerprint memo.
     */
    Page &pageFor(Addr a);
    std::vector<Addr> sortedPageNumbers() const;

    std::unordered_map<Addr, std::shared_ptr<Page>> _pages;
};

} // namespace memory
} // namespace ff

#endif // FF_MEMORY_SPARSE_MEMORY_HH
