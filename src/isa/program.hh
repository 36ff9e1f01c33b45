/**
 * @file
 * A complete ffvm program: the static instruction stream (with stop
 * bits delimiting issue groups), an initial data image, and derived
 * issue-group navigation tables used by the fetch and issue logic.
 */

#ifndef FF_ISA_PROGRAM_HH
#define FF_ISA_PROGRAM_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "isa/instruction.hh"
#include "memory/sparse_memory.hh"

namespace ff
{
namespace isa
{

class Program;

/**
 * Returns a copy of @p prog with a stop bit on every instruction —
 * one-instruction issue groups, i.e. plain sequential semantics.
 * Branch targets stay valid (every instruction becomes a leader).
 * This is the canonical way to hand arbitrary grouped (or ungrouped)
 * code to the scheduler, which re-forms the groups itself.
 */
Program sequentialize(const Program &prog);

/**
 * The decoded form of one static instruction: what the timed stages
 * read per slot, computed once when the program builds its group
 * tables. Sources name slots (isa::sourceSlot()), so a hardwired or
 * unused source reads a constant slot; destinations name register
 * slots and are listed in destinations() order. Semantics (opcode,
 * condition, immediate) stay in the Instruction.
 */
struct Decoded
{
    /** Flag bits of @c flags. */
    enum : std::uint8_t
    {
        kLoad = 1u << 0,      ///< a load
        kStore = 1u << 1,     ///< a store
        kBranch = 1u << 2,    ///< a branch
        kHalt = 1u << 3,      ///< a HALT
        kFpUnit = 1u << 4,    ///< issues to an FP unit
        kGroupHalt = 1u << 5, ///< a slot of this issue group is a HALT
    };

    std::uint8_t qp = kOneSlot;    ///< qualifying predicate's slot
    std::uint8_t src1 = kZeroSlot; ///< src1's slot
    /** src2's slot; kZeroSlot when src2 is unused or an immediate. */
    std::uint8_t src2 = kZeroSlot;
    std::uint8_t numDsts = 0;          ///< destinations written
    std::array<std::uint8_t, 2> dst{}; ///< their register slots
    std::uint8_t flags = 0;            ///< kLoad | kStore | ...
    UnitClass unit = UnitClass::kAlu;  ///< OpInfo::unit
    std::uint8_t latency = 0;          ///< OpInfo::latency
    std::uint8_t size = 0;             ///< OpInfo::accessBytes

    /** True for a load. */
    bool isLoad() const { return (flags & kLoad) != 0; }
    /** True for a store. */
    bool isStore() const { return (flags & kStore) != 0; }
    /** True for a branch. */
    bool isBranch() const { return (flags & kBranch) != 0; }
    /** True for a HALT. */
    bool isHalt() const { return (flags & kHalt) != 0; }
    /** True when the instruction issues to an FP unit. */
    bool isFp() const { return (flags & kFpUnit) != 0; }
    /** True when a slot of this instruction's issue group is a HALT. */
    bool groupHasHalt() const { return (flags & kGroupHalt) != 0; }
};

/** Machine resource widths used to validate issue groups. */
struct GroupLimits
{
    unsigned issueWidth = 8;  ///< slots per issue group
    unsigned aluUnits = 5;    ///< integer ALU slots per group
    unsigned memUnits = 3;    ///< load/store slots per group
    unsigned fpUnits = 3;     ///< FP slots per group
    unsigned branchUnits = 3; ///< branch slots per group
};

/**
 * An executable program image. Instruction addresses are instruction
 * indices; the I-cache maps them to byte addresses by a fixed 16-byte
 * encoding per instruction (an IA-64 bundle is 16 bytes for 3 slots;
 * we charge a generous fixed size per slot to keep the I-side simple).
 */
class Program
{
  public:
    /** Bytes charged per instruction for I-cache purposes. */
    static constexpr Addr kBytesPerInst = 16;

    /** Base virtual address of the text segment. */
    static constexpr Addr kTextBase = 0x4000'0000;

    /** An empty program (no instructions, empty image). */
    Program() = default;
    /**
     * @p image is the initial data image; a copy of another
     * program's image shares its pages until either side writes.
     */
    Program(std::string name, std::vector<Instruction> insts,
            memory::SparseMemory image = {});

    /** The program's display name. */
    const std::string &name() const { return _name; }

    /** The instruction stream, in index order. */
    const std::vector<Instruction> &insts() const { return _insts; }
    /** Instruction @p i, bounds-checked. */
    const Instruction &inst(InstIdx i) const { return _insts.at(i); }

    /**
     * The decoded form of instruction @p i, unchecked: the timed
     * stages read it for every slot of a group whose [leader, end)
     * the front end took from groupEnd(), which is checked.
     */
    const Decoded &decoded(InstIdx i) const { return _decoded[i]; }
    /** Number of instructions. */
    InstIdx size() const { return static_cast<InstIdx>(_insts.size()); }

    /** Index of the first instruction of the group containing @p i. */
    InstIdx groupStart(InstIdx i) const { return _groupStart.at(i); }

    /**
     * Index one past the last instruction of the group containing
     * @p i (i.e., the start of the next group, or size()).
     */
    InstIdx groupEnd(InstIdx i) const { return _groupEnd.at(i); }

    /** Instruction index of the fall-through successor group. */
    InstIdx nextGroup(InstIdx group_leader) const
    {
        return groupEnd(group_leader);
    }

    /** True if @p i is the first slot of an issue group. */
    bool isGroupLeader(InstIdx i) const
    {
        return i < size() && _groupStart[i] == i;
    }

    /**
     * Content hash of the instruction stream (opcodes, operands,
     * immediates, stop bits), computed once at construction. Two
     * programs with equal hashes hold, for verification purposes,
     * the same code — the harness keys its verification memo on it.
     */
    std::uint64_t instStreamHash() const { return _instHash; }

    /**
     * Content digest of the whole program image: SHA-256 over
     * instStreamHash() and then every data page (base, size, bytes)
     * in address order, read as the first 8 digest bytes
     * little-endian. Results depend on data as well as code, so this
     * is the identity the result cache, snapshots and pipe traces
     * key on. Computed on the first call, not at construction, and
     * memoized; concurrent first calls on a shared const Program
     * compute it once. Every poke*() drops the memo.
     */
    std::uint64_t contentHash() const;

    /** Fetch-time byte address of instruction @p i. */
    static Addr instAddr(InstIdx i)
    {
        return kTextBase + static_cast<Addr>(i) * kBytesPerInst;
    }

    /** Convenience: poke a 64-bit little-endian word. */
    void poke64(Addr addr, std::uint64_t value);

    /** Convenience: poke a 32-bit little-endian word. */
    void poke32(Addr addr, std::uint32_t value);

    /** Convenience: poke an IEEE double. */
    void pokeDouble(Addr addr, double value);

    /**
     * The initial data image. Models and the functional reference
     * start from a copy of it, which shares its pages copy-on-write.
     */
    const memory::SparseMemory &dataImage() const { return _data; }

    /**
     * Structural validation: stop bit on the final instruction,
     * branch targets land on group leaders, group resource usage fits
     * @p limits, register indices in range, no intra-group RAW or WAW
     * register dependences (EPIC group semantics: reads observe
     * pre-group state).
     *
     * @return empty string if valid, else a description of the first
     *         violation found.
     */
    std::string validate(const GroupLimits &limits = GroupLimits()) const;

  private:
    /**
     * contentHash()'s memo. A copy takes a computed digest along
     * with the image it describes, never the lock. Copying is
     * noexcept so Program's implicit move stays noexcept, and a
     * growing vector of programs moves their images, not copies them.
     */
    struct ContentMemo
    {
        ContentMemo() = default;
        ContentMemo(const ContentMemo &o) noexcept { *this = o; }
        ContentMemo &operator=(const ContentMemo &o) noexcept;

        std::mutex mu;
        std::atomic<bool> ready{false};
        std::uint64_t value = 0;
    };

    void rebuildGroups();
    void dropContentMemo();

    std::string _name;
    std::vector<Instruction> _insts;
    std::vector<InstIdx> _groupStart;
    std::vector<InstIdx> _groupEnd;
    std::vector<Decoded> _decoded; ///< one entry per instruction
    std::uint64_t _instHash = 0;
    memory::SparseMemory _data;
    mutable ContentMemo _content;
};

} // namespace isa
} // namespace ff

#endif // FF_ISA_PROGRAM_HH
