#include "isa/program.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <sstream>
#include <type_traits>

#include "common/hash.hh"
#include "common/logging.hh"

namespace ff
{
namespace isa
{

Program
sequentialize(const Program &prog)
{
    std::vector<Instruction> insts = prog.insts();
    for (Instruction &in : insts)
        in.stop = true;
    return Program(prog.name(), std::move(insts), prog.dataImage());
}

Program::Program(std::string name, std::vector<Instruction> insts,
                 memory::SparseMemory image)
    : _name(std::move(name)), _insts(std::move(insts)),
      _data(std::move(image))
{
    rebuildGroups();
}

namespace
{

/** splitmix64 finalizer: the mixing step of the stream hash. */
std::uint64_t
mix64(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xbf58476d1ce4e5b9ULL;
    return h ^ (h >> 27);
}

std::uint64_t
mixReg(std::uint64_t h, RegId r)
{
    return mix64(h, (static_cast<std::uint64_t>(r.cls) << 8) |
                        static_cast<std::uint64_t>(r.idx));
}

/**
 * Decodes @p in (instruction @p i). Panics on a destination the
 * timed stages would index without a test: an opcode that writes dst
 * (or, for a compare, dst2) with that operand unused. Hardwired and
 * out-of-range registers are left to validate(), which every model
 * runs before its first cycle.
 */
Decoded
decode(const Instruction &in, InstIdx i)
{
    const OpInfo &info = opInfo(in.op);
    Decoded d;
    d.qp = static_cast<std::uint8_t>(sourceSlot(in.qpred));
    d.src1 = static_cast<std::uint8_t>(sourceSlot(in.src1));
    d.src2 = static_cast<std::uint8_t>(
        in.src2IsImm ? kZeroSlot : sourceSlot(in.src2));
    std::array<RegId, 2> dsts;
    d.numDsts = static_cast<std::uint8_t>(in.destinations(dsts));
    for (unsigned k = 0; k < d.numDsts; ++k)
        d.dst[k] = static_cast<std::uint8_t>(regSlot(dsts[k]));

    const bool writes_dst = !(in.isNop() || in.isHalt() ||
                              in.isStore() || in.isBranch());
    const bool writes_dst2 =
        in.op == Opcode::kCmp || in.op == Opcode::kFcmp;
    ff_panic_if(writes_dst && !in.dst.valid(), "inst ", i, ": ",
                info.mnemonic, " has no destination");
    ff_panic_if(writes_dst2 && !in.dst2.valid(), "inst ", i, ": ",
                info.mnemonic, " has no second destination");

    d.flags = static_cast<std::uint8_t>(
        (in.isLoad() ? Decoded::kLoad : 0) |
        (in.isStore() ? Decoded::kStore : 0) |
        (in.isBranch() ? Decoded::kBranch : 0) |
        (in.isHalt() ? Decoded::kHalt : 0) |
        (info.unit == UnitClass::kFp ? Decoded::kFpUnit : 0));
    d.unit = info.unit;
    d.latency = static_cast<std::uint8_t>(info.latency);
    d.size = static_cast<std::uint8_t>(info.accessBytes);
    return d;
}

} // namespace

void
Program::rebuildGroups()
{
    const InstIdx n = static_cast<InstIdx>(_insts.size());
    _groupStart.assign(n, 0);
    _groupEnd.assign(n, 0);
    _decoded.resize(n);
    InstIdx leader = 0;
    bool group_halt = false;
    std::uint64_t h = 0x8f1e'c0de'0000'0000ULL ^ n;
    for (InstIdx i = 0; i < n; ++i) {
        _groupStart[i] = leader;
        _decoded[i] = decode(_insts[i], i);
        group_halt = group_halt || _insts[i].isHalt();
        if (_insts[i].stop || i + 1 == n) {
            for (InstIdx j = leader; j <= i; ++j) {
                _groupEnd[j] = i + 1;
                if (group_halt)
                    _decoded[j].flags |= Decoded::kGroupHalt;
            }
            leader = i + 1;
            group_halt = false;
        }
        // Fold every semantic field (not raw bytes: padding and the
        // srcLine provenance must not perturb the identity).
        const Instruction &in = _insts[i];
        h = mix64(h, static_cast<std::uint64_t>(in.op));
        h = mix64(h, static_cast<std::uint64_t>(in.cond));
        h = mixReg(h, in.qpred);
        h = mixReg(h, in.dst);
        h = mixReg(h, in.dst2);
        h = mixReg(h, in.src1);
        h = mixReg(h, in.src2);
        h = mix64(h, static_cast<std::uint64_t>(in.imm));
        h = mix64(h, (in.src2IsImm ? 2u : 0u) | (in.stop ? 1u : 0u));
    }
    _instHash = h;
}

static_assert(std::is_nothrow_move_constructible_v<Program> &&
              std::is_nothrow_move_assignable_v<Program>);

Program::ContentMemo &
Program::ContentMemo::operator=(const ContentMemo &o) noexcept
{
    const bool r = o.ready.load();
    if (r)
        value = o.value;
    ready.store(r);
    return *this;
}

std::uint64_t
Program::contentHash() const
{
    if (_content.ready.load())
        return _content.value;
    std::lock_guard<std::mutex> lk(_content.mu);
    if (!_content.ready.load()) {
        // Fed straight from the pages; the u64 fields go in
        // little-endian, as serial::Writer lays them out, so the
        // digest matches existing cache entries and snapshots.
        Sha256 h;
        auto put64 = [&h](std::uint64_t v) {
            std::array<std::uint8_t, 8> le{};
            for (unsigned i = 0; i < 8; ++i)
                le[i] = static_cast<std::uint8_t>(v >> (8 * i));
            h.update(le.data(), le.size());
        };
        put64(_instHash);
        _data.forEachPage([&](Addr base, const std::uint8_t *bytes) {
            put64(base);
            put64(memory::SparseMemory::kPageBytes);
            h.update(bytes, memory::SparseMemory::kPageBytes);
        });
        _content.value = h.digest64();
        _content.ready.store(true);
    }
    return _content.value;
}

void
Program::dropContentMemo()
{
    // Loaded first: builders poke word by word before any hash, and
    // the check keeps that loop free of atomic stores.
    if (_content.ready.load())
        _content.ready.store(false);
}

void
Program::poke64(Addr addr, std::uint64_t value)
{
    _data.write64(addr, value);
    dropContentMemo();
}

void
Program::poke32(Addr addr, std::uint32_t value)
{
    _data.write32(addr, value);
    dropContentMemo();
}

void
Program::pokeDouble(Addr addr, double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    poke64(addr, bits);
}

std::string
Program::validate(const GroupLimits &limits) const
{
    std::ostringstream err;
    const InstIdx n = size();
    if (n == 0)
        return "empty program";
    if (!_insts[n - 1].stop)
        return "final instruction lacks a stop bit";

    bool has_halt = false;
    for (InstIdx i = 0; i < n; ++i) {
        const Instruction &in = _insts[i];
        if (in.isHalt())
            has_halt = true;
        if (!regInRange(in.qpred) || !regInRange(in.dst) ||
            !regInRange(in.dst2) || !regInRange(in.src1) ||
            !regInRange(in.src2)) {
            err << "inst " << i << ": register index out of range";
            return err.str();
        }
        if (in.qpred.cls != RegClass::kPred) {
            err << "inst " << i << ": qualifying predicate is not a "
                << "predicate register";
            return err.str();
        }
        if (in.isBranch()) {
            // A taken branch squashes younger slots of its own group;
            // we sidestep that complexity by requiring branches to be
            // group-final (the scheduler always emits them that way).
            if (!in.stop) {
                err << "inst " << i << ": branch is not the final slot "
                    << "of its issue group";
                return err.str();
            }
            if (in.imm < 0 || in.imm >= static_cast<std::int64_t>(n)) {
                err << "inst " << i << ": branch target " << in.imm
                    << " out of range";
                return err.str();
            }
            if (!isGroupLeader(static_cast<InstIdx>(in.imm))) {
                err << "inst " << i << ": branch target " << in.imm
                    << " is not an issue-group leader";
                return err.str();
            }
        }
    }
    if (!has_halt)
        return "program has no halt instruction";

    // Per-group resource and dependence checks.
    for (InstIdx leader = 0; leader < n; leader = _groupEnd[leader]) {
        const InstIdx end = _groupEnd[leader];
        unsigned alu = 0, mem = 0, fp = 0, br = 0;
        // Written registers in this group, for RAW/WAW detection.
        std::vector<RegId> written;
        bool group_has_store = false;
        for (InstIdx i = leader; i < end; ++i) {
            const Instruction &in = _insts[i];
            // Memory ordering within a group: once a store appears,
            // no further memory operation may share the group (the
            // two-pass merge logic relies on this; the scheduler's
            // conservative memory edges always satisfy it).
            if (in.isMem()) {
                if (group_has_store) {
                    err << "inst " << i
                        << ": memory op follows a store in its group";
                    return err.str();
                }
                if (in.isStore())
                    group_has_store = true;
            }
            switch (in.unit()) {
              case UnitClass::kAlu: ++alu; break;
              case UnitClass::kMem: ++mem; break;
              case UnitClass::kFp: ++fp; break;
              case UnitClass::kBranch: ++br; break;
            }
            std::array<RegId, 4> srcs;
            unsigned ns = in.sources(srcs);
            for (unsigned s = 0; s < ns; ++s) {
                for (const RegId &w : written) {
                    if (srcs[s] == w) {
                        err << "inst " << i << ": intra-group RAW on "
                            << regName(w);
                        return err.str();
                    }
                }
            }
            std::array<RegId, 2> dsts;
            unsigned nd = in.destinations(dsts);
            for (unsigned d = 0; d < nd; ++d) {
                // Hardwired registers may not be written.
                if ((dsts[d].cls == RegClass::kInt && dsts[d].idx == 0) ||
                    (dsts[d].cls == RegClass::kFp && dsts[d].idx == 0) ||
                    (dsts[d].cls == RegClass::kPred && dsts[d].idx == 0)) {
                    err << "inst " << i << ": write to hardwired "
                        << regName(dsts[d]);
                    return err.str();
                }
                for (const RegId &w : written) {
                    if (dsts[d] == w) {
                        err << "inst " << i << ": intra-group WAW on "
                            << regName(w);
                        return err.str();
                    }
                }
                written.push_back(dsts[d]);
            }
        }
        const unsigned total = end - leader;
        if (total > limits.issueWidth || alu > limits.aluUnits ||
            mem > limits.memUnits || fp > limits.fpUnits ||
            br > limits.branchUnits) {
            err << "group at " << leader << " oversubscribes resources ("
                << total << " slots, " << alu << " alu, " << mem
                << " mem, " << fp << " fp, " << br << " br)";
            return err.str();
        }
    }
    return "";
}

} // namespace isa
} // namespace ff
