#include "isa/assembler.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "isa/builder.hh"
#include "isa/disasm.hh"

namespace ff
{
namespace isa
{

namespace
{

/** Cursor over one source line. */
struct Scanner
{
    const std::string &line;
    std::size_t pos = 0;
    /** Why a well-formed token was rejected (a number that does not
     *  fit); when set, it is the line's error message. */
    std::string fault{};

    void
    skipSpace()
    {
        while (pos < line.size() &&
               std::isspace(static_cast<unsigned char>(line[pos]))) {
            ++pos;
        }
    }

    bool
    atEnd()
    {
        skipSpace();
        return pos >= line.size();
    }

    bool
    peek(char c)
    {
        skipSpace();
        return pos < line.size() && line[pos] == c;
    }

    bool
    consume(char c)
    {
        if (!peek(c))
            return false;
        ++pos;
        return true;
    }

    /** Reads an identifier-like token ([A-Za-z0-9_.]+). */
    std::string
    ident()
    {
        skipSpace();
        std::size_t start = pos;
        while (pos < line.size() &&
               (std::isalnum(static_cast<unsigned char>(line[pos])) ||
                line[pos] == '_' || line[pos] == '.')) {
            ++pos;
        }
        return line.substr(start, pos - start);
    }

    /**
     * Reads a signed integer (decimal, 0x hex or leading-0 octal). It
     * must fit 64 bits: 0xffffffffffffffff is -1, -0x8000000000000000
     * is INT64_MIN, and anything larger, or a digit its base lacks,
     * sets fault.
     */
    bool
    integer(std::int64_t *out)
    {
        skipSpace();
        std::size_t start = pos;
        const bool negative = pos < line.size() && line[pos] == '-';
        if (pos < line.size() && (line[pos] == '-' || line[pos] == '+'))
            ++pos;
        const std::size_t magnitude = pos;
        bool hex = false;
        if (pos + 1 < line.size() && line[pos] == '0' &&
            (line[pos + 1] == 'x' || line[pos + 1] == 'X')) {
            pos += 2;
            hex = true;
        }
        std::size_t digits = 0;
        while (pos < line.size() &&
               (hex ? std::isxdigit(
                          static_cast<unsigned char>(line[pos]))
                    : std::isdigit(
                          static_cast<unsigned char>(line[pos])))) {
            ++pos;
            ++digits;
        }
        if (digits == 0) {
            pos = start;
            return false;
        }
        // Parse the magnitude unsigned (strtoull would negate a sign
        // modulo 2^64), then range-check it.
        const std::string text = line.substr(magnitude, pos - magnitude);
        char *end = nullptr;
        errno = 0;
        const std::uint64_t v = std::strtoull(text.c_str(), &end, 0);
        if (*end != '\0' || errno == ERANGE ||
            (negative && v > std::uint64_t{1} << 63)) {
            fault = "'" + line.substr(start, pos - start) +
                    "' is not a 64-bit integer";
            pos = start;
            return false;
        }
        *out = static_cast<std::int64_t>(negative ? 0 - v : v);
        return true;
    }

    std::string rest() { return line.substr(pos); }
};

/** Parses "r5" / "f2" / "p7". */
bool
parseReg(Scanner &s, RegId *out)
{
    s.skipSpace();
    const std::size_t save = s.pos;
    const std::string tok = s.ident();
    if (tok.size() < 2) {
        s.pos = save;
        return false;
    }
    RegClass cls;
    switch (tok[0]) {
      case 'r': cls = RegClass::kInt; break;
      case 'f': cls = RegClass::kFp; break;
      case 'p': cls = RegClass::kPred; break;
      default:
        s.pos = save;
        return false;
    }
    unsigned idx = 0;
    for (std::size_t i = 1; i < tok.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(tok[i]))) {
            s.pos = save;
            return false;
        }
        // Once out of range, stay there: a long index must not wrap.
        if (idx < 64)
            idx = idx * 10 + static_cast<unsigned>(tok[i] - '0');
    }
    if (idx >= 64) {
        s.fault = "register index out of range in '" + tok + "'";
        s.pos = save;
        return false;
    }
    out->cls = cls;
    out->idx = static_cast<std::uint8_t>(idx);
    return true;
}

bool
parseCond(const std::string &name, CmpCond *out)
{
    static const std::map<std::string, CmpCond> kConds = {
        {"eq", CmpCond::kEq}, {"ne", CmpCond::kNe},
        {"lt", CmpCond::kLt}, {"le", CmpCond::kLe},
        {"gt", CmpCond::kGt}, {"ge", CmpCond::kGe},
        {"ltu", CmpCond::kLtu},
    };
    auto it = kConds.find(name);
    if (it == kConds.end())
        return false;
    *out = it->second;
    return true;
}

/** "[rN]" / "[rN+imm]" / "[rN-imm]". */
bool
parseMemOperand(Scanner &s, RegId *base, std::int64_t *off)
{
    if (!s.consume('['))
        return false;
    if (!parseReg(s, base))
        return false;
    *off = 0;
    s.skipSpace();
    if (s.peek(']')) {
        s.consume(']');
        return true;
    }
    // The sign is part of the offset expression.
    if (!s.integer(off))
        return false;
    return s.consume(']');
}

struct PendingBranch
{
    InstIdx idx;
    std::string target; // label, or "@N"
    int lineNo;
};

} // namespace

std::string
assemble(const std::string &source, const std::string &name,
         Program *out)
{
    std::vector<Instruction> insts;
    std::map<std::string, InstIdx> labels;
    std::vector<PendingBranch> branches;
    memory::SparseMemory image; // collects .poke directives

    std::istringstream in(source);
    std::string raw;
    int line_no = 0;

    while (std::getline(in, raw)) {
        ++line_no;
        // Strip comments.
        for (const char *c : {"#", "//"}) {
            const auto p = raw.find(c);
            if (p != std::string::npos)
                raw.erase(p);
        }
        Scanner s{raw};
        if (s.atEnd())
            continue;
        auto err = [&](const std::string &msg) {
            return "line " + std::to_string(line_no) + ": " +
                   (s.fault.empty() ? msg : s.fault);
        };

        // Directives.
        if (s.peek('.')) {
            const std::string dir = s.ident();
            std::int64_t addr = 0;
            if (!s.integer(&addr))
                return err("expected address after " + dir);
            if (dir == ".poke64") {
                std::int64_t v = 0;
                if (!s.integer(&v))
                    return err("expected value after .poke64");
                image.write64(static_cast<Addr>(addr),
                              static_cast<std::uint64_t>(v));
            } else if (dir == ".poke32") {
                std::int64_t v = 0;
                if (!s.integer(&v))
                    return err("expected value after .poke32");
                image.write32(static_cast<Addr>(addr),
                              static_cast<std::uint32_t>(v));
            } else if (dir == ".pokedouble") {
                s.skipSpace();
                char *end = nullptr;
                const std::string tail = s.rest();
                const double d = std::strtod(tail.c_str(), &end);
                if (end == tail.c_str())
                    return err("expected value after .pokedouble");
                image.writeBytes(static_cast<Addr>(addr), &d,
                                 sizeof(d));
            } else {
                return err("unknown directive " + dir);
            }
            continue;
        }

        // Optional qualifying-predicate prefix.
        Instruction inst;
        if (s.peek('(')) {
            s.consume('(');
            RegId qp;
            if (!parseReg(s, &qp) || qp.cls != RegClass::kPred)
                return err("expected predicate register after '('");
            if (!s.consume(')'))
                return err("expected ')'");
            inst.qpred = qp;
        }

        // Label?
        {
            const std::size_t save = s.pos;
            const std::string tok = s.ident();
            if (!tok.empty() && s.peek(':')) {
                s.consume(':');
                if (labels.count(tok))
                    return err("duplicate label '" + tok + "'");
                labels[tok] = static_cast<InstIdx>(insts.size());
                if (s.atEnd())
                    continue;
                return err("label must be alone on its line");
            }
            s.pos = save;
        }

        // Mnemonic (possibly "cmp.lt").
        std::string mnem = s.ident();
        if (mnem.empty())
            return err("expected mnemonic");
        std::string cond_name;
        const auto dot = mnem.find('.');
        if (dot != std::string::npos) {
            cond_name = mnem.substr(dot + 1);
            mnem = mnem.substr(0, dot);
        }

        static const std::map<std::string, Opcode> kAlu3 = {
            {"add", Opcode::kAdd},   {"sub", Opcode::kSub},
            {"and", Opcode::kAnd},   {"or", Opcode::kOr},
            {"xor", Opcode::kXor},   {"shl", Opcode::kShl},
            {"shr", Opcode::kShr},   {"sra", Opcode::kSra},
            {"mul", Opcode::kMul},   {"fadd", Opcode::kFadd},
            {"fsub", Opcode::kFsub}, {"fmul", Opcode::kFmul},
            {"fdiv", Opcode::kFdiv},
        };

        if (mnem == "nop") {
            inst.op = Opcode::kNop;
        } else if (mnem == "halt") {
            inst.op = Opcode::kHalt;
        } else if (mnem == "movi") {
            inst.op = Opcode::kMovi;
            if (!parseReg(s, &inst.dst) || !s.consume('=') ||
                !s.integer(&inst.imm)) {
                return err("movi expects 'movi rD = imm'");
            }
        } else if (mnem == "mov" || mnem == "itof" || mnem == "ftoi") {
            inst.op = mnem == "mov"
                          ? Opcode::kMov
                          : (mnem == "itof" ? Opcode::kItof
                                            : Opcode::kFtoi);
            if (!parseReg(s, &inst.dst) || !s.consume('=') ||
                !parseReg(s, &inst.src1)) {
                return err(mnem + " expects '" + mnem + " xD = xS'");
            }
        } else if (mnem == "cmp" || mnem == "fcmp") {
            inst.op = mnem == "cmp" ? Opcode::kCmp : Opcode::kFcmp;
            if (!parseCond(cond_name, &inst.cond))
                return err("bad or missing condition '." + cond_name +
                           "'");
            if (!parseReg(s, &inst.dst) || !s.consume(',') ||
                !parseReg(s, &inst.dst2) || !s.consume('=') ||
                !parseReg(s, &inst.src1) || !s.consume(',')) {
                return err(mnem + " expects 'pT, pF = src, src'");
            }
            if (!parseReg(s, &inst.src2)) {
                if (!s.integer(&inst.imm))
                    return err("expected register or immediate");
                inst.src2IsImm = true;
            }
        } else if (mnem == "ld4" || mnem == "ld8") {
            inst.op = mnem == "ld4" ? Opcode::kLd4 : Opcode::kLd8;
            if (!parseReg(s, &inst.dst) || !s.consume('=') ||
                !parseMemOperand(s, &inst.src1, &inst.imm)) {
                return err(mnem + " expects 'rD = [rB+off]'");
            }
        } else if (mnem == "st4" || mnem == "st8") {
            inst.op = mnem == "st4" ? Opcode::kSt4 : Opcode::kSt8;
            if (!parseMemOperand(s, &inst.src1, &inst.imm) ||
                !s.consume('=') || !parseReg(s, &inst.src2)) {
                return err(mnem + " expects '[rB+off] = rS'");
            }
        } else if (mnem == "br") {
            inst.op = Opcode::kBr;
            s.skipSpace();
            if (s.peek('@')) {
                s.consume('@');
                std::int64_t t = 0;
                if (!s.integer(&t))
                    return err("expected index after '@'");
                inst.imm = t;
            } else {
                const std::string target = s.ident();
                if (target.empty())
                    return err("br expects a label or '@index'");
                branches.push_back(
                    {static_cast<InstIdx>(insts.size()), target,
                     line_no});
            }
        } else if (auto it = kAlu3.find(mnem); it != kAlu3.end()) {
            inst.op = it->second;
            if (!parseReg(s, &inst.dst) || !s.consume('=') ||
                !parseReg(s, &inst.src1) || !s.consume(',')) {
                return err(mnem + " expects 'xD = xA, xB|imm'");
            }
            if (!parseReg(s, &inst.src2)) {
                if (!s.integer(&inst.imm))
                    return err("expected register or immediate");
                inst.src2IsImm = true;
            }
        } else {
            return err("unknown mnemonic '" + mnem + "'");
        }

        // Stop bit.
        s.skipSpace();
        if (s.pos + 1 < s.line.size() + 1 &&
            s.line.compare(s.pos, 2, ";;") == 0) {
            inst.stop = true;
            s.pos += 2;
        }
        if (inst.isBranch())
            inst.stop = true; // branches always end their group
        if (!s.atEnd())
            return err("trailing junk: '" + s.rest() + "'");

        inst.srcLine = line_no;
        insts.push_back(inst);
    }

    if (insts.empty())
        return "empty program";
    insts.back().stop = true;

    for (const PendingBranch &b : branches) {
        auto it = labels.find(b.target);
        if (it == labels.end()) {
            return "line " + std::to_string(b.lineNo) +
                   ": undefined label '" + b.target + "'";
        }
        insts[b.idx].imm = static_cast<std::int64_t>(it->second);
    }

    *out = Program(name, std::move(insts), std::move(image));
    return "";
}

Program
assembleOrDie(const std::string &source, const std::string &name)
{
    Program p;
    const std::string e = assemble(source, name, &p);
    ff_fatal_if(!e.empty(), "assembly of '", name, "' failed: ", e);
    return p;
}

std::string
toAssembly(const Program &prog)
{
    // Branch targets get generated labels.
    std::map<InstIdx, std::string> target_labels;
    for (InstIdx i = 0; i < prog.size(); ++i) {
        const Instruction &in = prog.inst(i);
        if (in.isBranch()) {
            const auto t = static_cast<InstIdx>(in.imm);
            if (!target_labels.count(t))
                target_labels[t] = "L" + std::to_string(t);
        }
    }

    std::ostringstream oss;
    oss << "# program '" << prog.name() << "'\n";
    for (InstIdx i = 0; i < prog.size(); ++i) {
        auto lbl = target_labels.find(i);
        if (lbl != target_labels.end())
            oss << lbl->second << ":\n";
        const Instruction &in = prog.inst(i);
        if (in.isBranch()) {
            if (!(in.qpred.cls == RegClass::kPred && in.qpred.idx == 0))
                oss << "(" << regName(in.qpred) << ") ";
            oss << "br "
                << target_labels.at(static_cast<InstIdx>(in.imm));
        } else {
            oss << disasm(in);
        }
        if (in.stop)
            oss << "  ;;";
        oss << '\n';
    }
    // Data image as directives (64-bit words; zero words elided).
    prog.dataImage().forEachPage(
        [&oss](Addr base, const std::uint8_t *page) {
            for (Addr off = 0; off < memory::SparseMemory::kPageBytes;
                 off += 8) {
                std::uint64_t v = 0;
                for (unsigned b = 0; b < 8; ++b)
                    v |= static_cast<std::uint64_t>(page[off + b])
                         << (8 * b);
                if (v != 0) {
                    oss << ".poke64 0x" << std::hex << (base + off)
                        << " 0x" << v << std::dec << '\n';
                }
            }
        });
    return oss.str();
}

} // namespace isa
} // namespace ff
