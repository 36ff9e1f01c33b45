/**
 * @file
 * Value-range propagation checked against execution. Random programs
 * over every integer opcode plus ld4/ld8/st4/st8 run one instruction
 * per issue group through cpu::evaluate; every address a memory
 * operation reaches must lie inside the range the analysis claims for
 * it, and every null or misaligned finding ffcheck reports must hold
 * each time its instruction is reached.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/ffcheck.hh"
#include "analysis/range.hh"
#include "common/random.hh"
#include "cpu/exec.hh"
#include "cpu/regfile.hh"
#include "memory/sparse_memory.hh"

namespace ff
{
namespace
{

using analysis::CheckId;
using analysis::Range;
using isa::Instruction;
using isa::Opcode;
using isa::RegId;

constexpr unsigned kSeeds = 2000;
constexpr unsigned kIntPool = 8;  ///< r1..r8 carry data and bases
constexpr unsigned kPredPool = 3; ///< p1..p3 qualify random slots
constexpr std::uint64_t kMaxSteps = 20000;

/** Immediates around the null, alignment and wraparound edges. */
constexpr std::int64_t kImms[] = {0,  1,  3,      4,      7,
                                  8,  63, 64,     -1,     -8,
                                  0x1000, 0x1001, 0x7FF8};

constexpr Opcode kAluOps[] = {Opcode::kAdd, Opcode::kSub, Opcode::kAnd,
                              Opcode::kOr,  Opcode::kXor, Opcode::kShl,
                              Opcode::kShr, Opcode::kSra, Opcode::kMul};

constexpr Opcode kMemOps[] = {Opcode::kLd4, Opcode::kLd8, Opcode::kSt4,
                              Opcode::kSt8};

const RegId kCounter = isa::intReg(9);
const RegId kLoopPred = isa::predReg(6);
const RegId kSkipPred = isa::predReg(4);

/** Builds random terminating programs, one instruction per group. */
class AddressProgramGen
{
  public:
    explicit AddressProgramGen(std::uint64_t seed) : _rng(seed) {}

    isa::Program
    build(const std::string &name)
    {
        for (unsigned r = 1; r <= kIntPool; ++r) {
            if (_rng.chance(0.75))
                emit(withImm(make(Opcode::kMovi, isa::intReg(r)), imm()));
        }
        const unsigned loops = 1 + static_cast<unsigned>(_rng.nextBelow(2));
        for (unsigned l = 0; l < loops; ++l)
            loop();
        emit(make(Opcode::kHalt));
        return isa::Program(name, std::move(_insts));
    }

  private:
    static Instruction
    make(Opcode op, RegId dst = {}, RegId src1 = {}, RegId src2 = {})
    {
        Instruction in;
        in.op = op;
        in.dst = dst;
        in.src1 = src1;
        in.src2 = src2;
        return in;
    }

    static Instruction
    withImm(Instruction in, std::int64_t imm)
    {
        in.imm = imm;
        in.src2IsImm = true;
        return in;
    }

    static Instruction
    branch(RegId pred, std::int64_t target)
    {
        Instruction in = make(Opcode::kBr);
        in.qpred = pred;
        in.imm = target;
        return in;
    }

    template <typename T, std::size_t N>
    const T &
    pick(const T (&pool)[N])
    {
        return pool[_rng.nextBelow(N)];
    }

    std::int64_t imm() { return pick(kImms); }

    RegId
    intReg()
    {
        return isa::intReg(
            1 + static_cast<unsigned>(_rng.nextBelow(kIntPool)));
    }

    Instruction
    cmp(RegId pt, RegId pf)
    {
        Instruction in = make(Opcode::kCmp, pt, intReg(), intReg());
        in.dst2 = pf;
        in.cond = static_cast<isa::CmpCond>(_rng.nextBelow(7));
        return in;
    }

    void
    emit(Instruction in)
    {
        in.stop = true;
        _insts.push_back(in);
    }

    /** Counted loop of 2-4 trips around a random body. */
    void
    loop()
    {
        emit(withImm(make(Opcode::kMovi, kCounter),
                     2 + static_cast<std::int64_t>(_rng.nextBelow(3))));
        const auto head = static_cast<std::int64_t>(_insts.size());
        const unsigned n = 4 + static_cast<unsigned>(_rng.nextBelow(12));
        for (unsigned i = 0; i < n; ++i) {
            if (_rng.chance(0.2))
                skip();
            else
                randomSlot();
        }
        emit(withImm(make(Opcode::kSub, kCounter, kCounter), 1));
        Instruction more =
            withImm(make(Opcode::kCmp, kLoopPred, kCounter), 0);
        more.dst2 = isa::predReg(7);
        more.cond = isa::CmpCond::kGt;
        emit(more);
        emit(branch(kLoopPred, head));
    }

    /** A data-dependent forward branch over 1-3 random slots. */
    void
    skip()
    {
        emit(cmp(kSkipPred, isa::predReg(5)));
        const std::size_t at = _insts.size();
        emit(branch(kSkipPred, 0));
        const unsigned n = 1 + static_cast<unsigned>(_rng.nextBelow(3));
        for (unsigned i = 0; i < n; ++i)
            randomSlot();
        _insts[at].imm = static_cast<std::int64_t>(_insts.size());
    }

    /** One random integer or memory instruction, maybe predicated. */
    void
    randomSlot()
    {
        Instruction in;
        switch (_rng.nextBelow(6)) {
          case 0:
            in = make(pick(kAluOps), intReg(), intReg(), intReg());
            break;
          case 1:
            in = withImm(make(pick(kAluOps), intReg(), intReg()), imm());
            break;
          case 2:
            in = _rng.chance(0.5)
                     ? withImm(make(Opcode::kMovi, intReg()), imm())
                     : make(Opcode::kMov, intReg(), intReg());
            break;
          case 3: {
            const unsigned a =
                1 + static_cast<unsigned>(_rng.nextBelow(kPredPool));
            in = cmp(isa::predReg(a), isa::predReg(1 + a % kPredPool));
            break;
          }
          default: { // unmasked base, offset from the edge pool
            const Opcode op = pick(kMemOps);
            const bool load = op == Opcode::kLd4 || op == Opcode::kLd8;
            in = load ? make(op, intReg(), intReg())
                      : make(op, {}, intReg(), intReg());
            in.imm = imm();
            break;
          }
        }
        if (_rng.chance(0.25)) {
            in.qpred = isa::predReg(
                1 + static_cast<unsigned>(_rng.nextBelow(kPredPool)));
        }
        emit(in);
    }

    Rng _rng;
    std::vector<Instruction> _insts;
};

/** True if @p v lies in @p r's interval and matches its congruence. */
bool
contains(const Range &r, std::uint64_t v)
{
    const std::uint64_t mask = (std::uint64_t{1} << r.alignLog2) - 1;
    return r.lo <= v && v <= r.hi && (v & mask) == r.rem;
}

/**
 * Runs @p prog to its halt, one instruction per step, and calls
 * @p reach(inst, address) at every memory operation reached, whether
 * or not its predicate lets it execute. Returns false if the program
 * did not halt within kMaxSteps.
 */
template <typename Reach>
bool
execute(const isa::Program &prog, Reach &&reach)
{
    cpu::RegFile regs;
    memory::SparseMemory mem;
    InstIdx pc = 0;
    for (std::uint64_t step = 0; step < kMaxSteps; ++step) {
        const Instruction &in = prog.inst(pc);
        if (in.isHalt())
            return true;
        const RegVal s1 = in.src1.valid() ? regs.read(in.src1) : 0;
        const RegVal s2 = cpu::operandSrc2(
            in, in.src2.valid() ? regs.read(in.src2) : 0);
        if (in.isMem())
            reach(pc, cpu::evaluate(in, true, s1, s2).addr);
        cpu::EvalResult ev =
            cpu::evaluate(in, regs.readPred(in.qpred), s1, s2);
        ++pc;
        if (ev.taken)
            pc = static_cast<InstIdx>(in.imm);
        if (!ev.predTrue || ev.isBranch)
            continue;
        if (ev.isMemAccess) {
            if (in.isLoad()) {
                ev.dstVal = cpu::loadExtend(in.op,
                                            mem.read(ev.addr, ev.size));
            } else {
                mem.write(ev.addr, ev.storeVal, ev.size);
            }
        }
        if (ev.writesDst)
            regs.write(in.dst, ev.dstVal);
        if (ev.writesDst2)
            regs.write(in.dst2, ev.dst2Val);
    }
    return false;
}

TEST(RangeSoundness, AddressesAndFindingsHoldWhenExecuted)
{
    std::uint64_t reached = 0, nullReached = 0, misalignedReached = 0;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const isa::Program prog =
            AddressProgramGen(seed).build("range" + std::to_string(seed));
        const analysis::Cfg cfg(prog);
        const analysis::RangeProp rp(cfg);
        std::vector<Range> ea(prog.size());
        for (InstIdx i = 0; i < prog.size(); ++i)
            ea[i] = rp.effectiveAddress(i);
        std::vector<bool> flaggedNull(prog.size());
        std::vector<bool> flaggedMisaligned(prog.size());
        for (const analysis::Finding &f : analysis::check(prog).findings) {
            if (f.id == CheckId::kNullAccess)
                flaggedNull[f.inst] = true;
            if (f.id == CheckId::kMisalignedAccess)
                flaggedMisaligned[f.inst] = true;
        }

        bool sound = true;
        const bool halted = execute(prog, [&](InstIdx i, Addr a) {
            ++reached;
            if (!contains(ea[i], a)) {
                ADD_FAILURE() << "inst " << i << " reached 0x" << std::hex
                              << a << " outside [0x" << ea[i].lo
                              << ", 0x" << ea[i].hi << "] rem 0x"
                              << ea[i].rem << std::dec << " mod 2^"
                              << unsigned{ea[i].alignLog2};
                sound = false;
            }
            if (flaggedNull[i]) {
                ++nullReached;
                if (a != 0) {
                    ADD_FAILURE() << "inst " << i << " flagged null "
                                  << "reached 0x" << std::hex << a;
                    sound = false;
                }
            }
            if (flaggedMisaligned[i]) {
                ++misalignedReached;
                if (a % cpu::memSize(prog.inst(i).op) == 0) {
                    ADD_FAILURE() << "inst " << i << " flagged "
                                  << "misaligned reached 0x" << std::hex
                                  << a;
                    sound = false;
                }
            }
        });
        ASSERT_TRUE(halted);
        ASSERT_TRUE(sound);
    }
    // The corpus must exercise both findings, not pass vacuously.
    EXPECT_GT(reached, 10000u);
    EXPECT_GT(nullReached, 0u);
    EXPECT_GT(misalignedReached, 0u);
}

} // namespace
} // namespace ff
