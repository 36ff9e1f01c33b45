#include "analysis/ffcheck.hh"

#include <algorithm>
#include <deque>
#include <sstream>

#include "analysis/cfg.hh"
#include "analysis/liveness.hh"
#include "analysis/memdep.hh"
#include "analysis/range.hh"
#include "analysis/reachdefs.hh"
#include "compiler/depgraph.hh"
#include "cpu/regfile.hh"

namespace ff
{
namespace analysis
{

using compiler::AliasResult;
using compiler::DepEdge;
using compiler::DepGraph;
using compiler::DepKind;
using isa::Instruction;
using isa::Opcode;
using isa::Program;
using isa::RegClass;
using isa::RegId;

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::kNote: return "note";
      case Severity::kWarning: return "warning";
      case Severity::kError: return "error";
    }
    return "?";
}

const char *
checkName(CheckId id)
{
    switch (id) {
      case CheckId::kUninitRead: return "uninit-read";
      case CheckId::kUninitPredicate: return "uninit-predicate";
      case CheckId::kGroupRaw: return "group-raw";
      case CheckId::kGroupWaw: return "group-waw";
      case CheckId::kGroupMemOrder: return "group-mem-order";
      case CheckId::kAliasStoreOrder: return "alias-store-order";
      case CheckId::kGroupOversubscribed: return "group-oversubscribed";
      case CheckId::kBranchTarget: return "branch-target";
      case CheckId::kBranchNotGroupFinal: return "branch-not-group-final";
      case CheckId::kFallOffEnd: return "fall-off-end";
      case CheckId::kHaltUnreachable: return "halt-unreachable";
      case CheckId::kUnreachableCode: return "unreachable-code";
      case CheckId::kPredPairAliased: return "pred-pair-aliased";
      case CheckId::kPredDestClass: return "pred-dest-class";
      case CheckId::kWriteHardwired: return "write-hardwired";
      case CheckId::kRegOutOfRange: return "reg-out-of-range";
      case CheckId::kMissingFinalStop: return "missing-final-stop";
      case CheckId::kNoHalt: return "no-halt";
      case CheckId::kNullAccess: return "null-access";
      case CheckId::kMisalignedAccess: return "misaligned-access";
      case CheckId::kRegPressure: return "reg-pressure";
    }
    return "?";
}

std::string
render(const Report &report, const std::string &source, bool show_notes)
{
    std::ostringstream oss;
    for (const Finding &f : report.findings) {
        if (f.severity == Severity::kNote && !show_notes)
            continue;
        oss << source;
        if (f.srcLine > 0)
            oss << ':' << f.srcLine;
        oss << ": " << severityName(f.severity) << ": ["
            << checkName(f.id) << "] " << f.message << '\n';
    }
    return oss.str();
}

namespace
{

/** Collects the checker state for one run. */
class Checker
{
  public:
    Checker(const Program &prog, const CheckOptions &opts)
        : _prog(prog), _opts(opts)
    {
    }

    Report
    run()
    {
        if (_prog.size() == 0) {
            add(CheckId::kNoHalt, Severity::kError, kInvalidInstIdx,
                "program is empty");
            return std::move(_report);
        }
        const bool sound = structural();
        if (sound) {
            // The remaining passes are dataflow analyses over the CFG
            // (see analysis/dataflow.hh), so they only run on programs
            // whose registers and branch structure are intact. All of
            // them share one CFG.
            const Cfg cfg(_prog);
            const ReachingDefs rd(cfg);
            controlFlow(cfg);
            defBeforeUse(rd);
            constantMemory(cfg);
            const MemDep md(cfg, rd);
            groups(md);
            if (_opts.reportPressure) {
                const Liveness live(cfg);
                pressure(live);
            }
        }
        std::stable_sort(_report.findings.begin(),
                         _report.findings.end(),
                         [](const Finding &a, const Finding &b) {
                             return a.inst < b.inst;
                         });
        return std::move(_report);
    }

  private:
    void
    add(CheckId id, Severity sev, InstIdx inst, std::string msg)
    {
        Finding f;
        f.id = id;
        f.severity = sev;
        f.inst = inst;
        if (inst != kInvalidInstIdx && inst < _prog.size())
            f.srcLine = _prog.inst(inst).srcLine;
        f.message = std::move(msg);
        _report.findings.push_back(std::move(f));
    }

    std::string
    at(InstIdx i) const
    {
        return "inst " + std::to_string(i);
    }

    /**
     * Per-instruction structural checks. Returns false if the damage
     * (bad register indices, wild branch targets) makes the CFG
     * passes unsafe to run.
     */
    bool
    structural()
    {
        const InstIdx n = _prog.size();
        bool sound = true;
        bool has_halt = false;

        if (!_prog.inst(n - 1).stop) {
            add(CheckId::kMissingFinalStop, Severity::kError, n - 1,
                at(n - 1) + ": final instruction lacks a stop bit");
        }
        for (InstIdx i = 0; i < n; ++i) {
            const Instruction &in = _prog.inst(i);
            if (in.isHalt())
                has_halt = true;

            for (const RegId r :
                 {in.qpred, in.dst, in.dst2, in.src1, in.src2}) {
                if (!regInRange(r)) {
                    add(CheckId::kRegOutOfRange, Severity::kError, i,
                        at(i) + ": register index " +
                            std::to_string(r.idx) +
                            " is beyond the 64-entry file");
                    sound = false;
                }
            }
            if (in.qpred.cls != RegClass::kPred) {
                add(CheckId::kRegOutOfRange, Severity::kError, i,
                    at(i) +
                        ": qualifying predicate is not a predicate "
                        "register");
                sound = false;
            }

            std::array<RegId, 2> dsts;
            const unsigned nd = in.destinations(dsts);
            for (unsigned d = 0; d < nd; ++d) {
                if (hardwired(dsts[d])) {
                    add(CheckId::kWriteHardwired, Severity::kError, i,
                        at(i) + ": write to hardwired " +
                            isa::regName(dsts[d]));
                }
            }

            if (in.op == Opcode::kCmp || in.op == Opcode::kFcmp) {
                if (in.dst.cls != RegClass::kPred ||
                    in.dst2.cls != RegClass::kPred) {
                    add(CheckId::kPredDestClass, Severity::kError, i,
                        at(i) + ": compare destinations must be "
                                "predicate registers");
                } else if (in.dst == in.dst2) {
                    add(CheckId::kPredPairAliased, Severity::kError, i,
                        at(i) + ": complementary predicate pair "
                                "aliases " +
                            isa::regName(in.dst) +
                            " (the pair must be distinct)");
                }
            }

            if (in.isBranch()) {
                if (!in.stop) {
                    add(CheckId::kBranchNotGroupFinal, Severity::kError,
                        i,
                        at(i) + ": branch is not the final slot of "
                                "its issue group");
                }
                if (in.imm < 0 ||
                    in.imm >= static_cast<std::int64_t>(n)) {
                    add(CheckId::kBranchTarget, Severity::kError, i,
                        at(i) + ": branch target " +
                            std::to_string(in.imm) +
                            " is outside the program");
                    sound = false;
                } else if (!_prog.isGroupLeader(
                               static_cast<InstIdx>(in.imm))) {
                    add(CheckId::kBranchTarget, Severity::kError, i,
                        at(i) + ": branch target " +
                            std::to_string(in.imm) +
                            " is not an issue-group leader");
                }
            }
        }
        if (!has_halt) {
            add(CheckId::kNoHalt, Severity::kError, kInvalidInstIdx,
                "program has no halt instruction");
        }
        return sound;
    }

    /** True if @p blk can fall through past its last instruction. */
    static bool
    fallsThrough(const Program &prog, const CfgBlock &blk)
    {
        const Instruction &last = prog.inst(blk.end - 1);
        if (last.isHalt())
            return false;
        return !(last.isBranch() && hardwired(last.qpred));
    }

    void
    controlFlow(const Cfg &cfg)
    {
        const auto &blocks = cfg.blocks();
        const std::size_t nb = blocks.size();

        // Forward reachability from the entry block.
        std::vector<bool> reachable(nb, false);
        std::deque<std::size_t> work{0};
        reachable[0] = true;
        while (!work.empty()) {
            const std::size_t b = work.front();
            work.pop_front();
            for (std::size_t s : blocks[b].succs) {
                if (!reachable[s]) {
                    reachable[s] = true;
                    work.push_back(s);
                }
            }
        }

        std::vector<bool> falls_off(nb, false);
        bool any_halt = false;
        for (std::size_t b = 0; b < nb; ++b) {
            if (_prog.inst(blocks[b].end - 1).isHalt())
                any_halt = true;
            if (!reachable[b]) {
                add(CheckId::kUnreachableCode, Severity::kWarning,
                    blocks[b].begin,
                    at(blocks[b].begin) + ": block is unreachable "
                                          "from the entry");
                continue;
            }
            if (fallsThrough(_prog, blocks[b]) &&
                blocks[b].end == _prog.size()) {
                falls_off[b] = true;
                add(CheckId::kFallOffEnd, Severity::kError,
                    blocks[b].end - 1,
                    at(blocks[b].end - 1) +
                        ": control can run past the last "
                        "instruction of the program");
            }
        }

        // Backward reachability from halt-terminated blocks: every
        // reachable block must have *some* path to a halt, or the
        // program can only end by running forever (or falling off,
        // which is reported separately).
        if (any_halt) {
            std::vector<bool> reaches_halt(nb, false);
            std::deque<std::size_t> back;
            for (std::size_t b = 0; b < nb; ++b) {
                if (reachable[b] &&
                    _prog.inst(blocks[b].end - 1).isHalt()) {
                    reaches_halt[b] = true;
                    back.push_back(b);
                }
            }
            while (!back.empty()) {
                const std::size_t b = back.front();
                back.pop_front();
                for (std::size_t p : blocks[b].preds) {
                    if (!reaches_halt[p]) {
                        reaches_halt[p] = true;
                        back.push_back(p);
                    }
                }
            }
            for (std::size_t b = 0; b < nb; ++b) {
                if (reachable[b] && !reaches_halt[b] && !falls_off[b]) {
                    add(CheckId::kHaltUnreachable, Severity::kError,
                        blocks[b].begin,
                        at(blocks[b].begin) +
                            ": no path from here reaches a halt "
                            "(infinite loop)");
                }
            }
        }
    }

    /**
     * Whole-program flow-sensitive def-before-use: a read is
     * uninitialized when the entry pseudo-definition of the register
     * may reach it, i.e. some path from the entry performs no write
     * first. ffvm resets registers to zero, so the behavior is
     * defined — hence a warning, promoted to an error by strict
     * consumers. One finding per register, at its first flagged read.
     */
    void
    defBeforeUse(const ReachingDefs &rd)
    {
        std::vector<bool> reported(cpu::kNumRegSlots, false);
        for (InstIdx i = 0; i < _prog.size(); ++i) {
            const Instruction &in = _prog.inst(i);
            std::array<RegId, 6> regs;
            std::array<RegId, 4> srcs;
            unsigned n = in.sources(srcs);
            std::copy(srcs.begin(), srcs.begin() + n, regs.begin());
            // A predicated write reads the old value it may retain.
            if (!hardwired(in.qpred)) {
                std::array<RegId, 2> dsts;
                const unsigned nd = in.destinations(dsts);
                for (unsigned d = 0; d < nd; ++d)
                    regs[n++] = dsts[d];
            }
            for (unsigned s = 0; s < n; ++s) {
                const RegId reg = regs[s];
                const int slot = cpu::regSlot(reg);
                if (slot < 0 || reg.idx == 0 ||
                    reported[static_cast<std::size_t>(slot)]) {
                    continue;
                }
                if (!rd.entryReaches(i, reg))
                    continue;
                reported[static_cast<std::size_t>(slot)] = true;
                const bool pred = reg.cls == RegClass::kPred;
                add(pred ? CheckId::kUninitPredicate
                         : CheckId::kUninitRead,
                    Severity::kWarning, i,
                    at(i) + ": " + isa::regName(reg) +
                        " is read before any write reaches it" +
                        (pred ? " (predicate defaults to false)"
                              : " (reads architectural zero)"));
            }
        }
    }

    /**
     * Issue-group legality: rebuild the dependence graph over each
     * group in isolation; any edge demanding one or more cycles of
     * separation between two slots of the same group breaks the EPIC
     * independence contract the two-pass merge logic assumes. Memory
     * pairs go through the alias analysis: provably disjoint accesses
     * are legal groupmates, provably overlapping ones escalate to the
     * dedicated alias-store-order diagnostic. Also counts functional-
     * unit demand against the machine widths.
     */
    void
    groups(const MemDep &md)
    {
        const InstIdx n = _prog.size();
        for (InstIdx leader = 0; leader < n;
             leader = _prog.groupEnd(leader)) {
            const InstIdx end = _prog.groupEnd(leader);
            const DepGraph graph(_prog.insts(), leader, end,
                                 _opts.latencies, &md);
            for (const DepEdge &e : graph.edges()) {
                if (e.minSep == 0)
                    continue; // WAR/control: same group is legal
                const InstIdx to = leader + e.to;
                const InstIdx from = leader + e.from;
                CheckId id;
                std::string what;
                switch (e.kind) {
                  case DepKind::kRaw:
                    id = CheckId::kGroupRaw;
                    what = "reads " + isa::regName(e.reg) +
                           " written by inst " + std::to_string(from) +
                           " in the same issue group";
                    break;
                  case DepKind::kWaw:
                    id = CheckId::kGroupWaw;
                    what = "rewrites " + isa::regName(e.reg) +
                           " already written by inst " +
                           std::to_string(from) +
                           " in the same issue group";
                    break;
                  default:
                    if (md.alias(from, to) == AliasResult::kMustAlias) {
                        id = CheckId::kAliasStoreOrder;
                        what = "memory access provably overlaps the "
                               "bytes touched by inst " +
                               std::to_string(from) +
                               " in the same issue group";
                    } else {
                        id = CheckId::kGroupMemOrder;
                        what = "memory operation cannot share a group "
                               "with the store at inst " +
                               std::to_string(from);
                    }
                    break;
                }
                add(id, Severity::kError, to, at(to) + ": " + what);
            }

            // The slot-order rule is stricter than the pairwise alias
            // verdicts: once a store issues in a group, no later slot
            // may be a memory operation at all -- even a provably
            // disjoint one -- because the two-pass merge replays
            // memory in slot order. The oracle prunes exactly those
            // edges from the graph above, so re-check structurally;
            // pairs the oracle kept were already reported per edge.
            for (InstIdx i = leader; i < end; ++i) {
                if (!_prog.inst(i).isMem())
                    continue;
                InstIdx store_at = end;
                bool all_pruned = true;
                for (InstIdx j = leader; j < i; ++j) {
                    if (!_prog.inst(j).isStore())
                        continue;
                    if (store_at == end)
                        store_at = j;
                    if (md.alias(j, i) != AliasResult::kMustNotAlias)
                        all_pruned = false;
                }
                if (store_at != end && all_pruned) {
                    add(CheckId::kGroupMemOrder, Severity::kError, i,
                        at(i) +
                            ": memory operation cannot share a group "
                            "with the store at inst " +
                            std::to_string(store_at) +
                            " (slot-order memory rule)");
                }
            }

            unsigned alu = 0, mem = 0, fp = 0, br = 0;
            for (InstIdx i = leader; i < end; ++i) {
                switch (_prog.inst(i).unit()) {
                  case isa::UnitClass::kAlu: ++alu; break;
                  case isa::UnitClass::kMem: ++mem; break;
                  case isa::UnitClass::kFp: ++fp; break;
                  case isa::UnitClass::kBranch: ++br; break;
                }
            }
            const unsigned total = end - leader;
            const isa::GroupLimits &lim = _opts.limits;
            if (total > lim.issueWidth || alu > lim.aluUnits ||
                mem > lim.memUnits || fp > lim.fpUnits ||
                br > lim.branchUnits) {
                std::ostringstream oss;
                oss << at(leader)
                    << ": issue group oversubscribes the machine ("
                    << total << " slots, " << alu << " alu, " << mem
                    << " mem, " << fp << " fp, " << br
                    << " br vs width " << lim.issueWidth << ", "
                    << lim.aluUnits << " alu, " << lim.memUnits
                    << " mem, " << lim.fpUnits << " fp, "
                    << lim.branchUnits << " br)";
                add(CheckId::kGroupOversubscribed, Severity::kError,
                    leader, oss.str());
            }
        }
    }

    /**
     * Memory address diagnostics from value ranges. An exact
     * effective address is checked for null and alignment directly;
     * any other address is misaligned when its low bits are pinned by
     * its construction (masks, shifts, scaled indices).
     */
    void
    constantMemory(const Cfg &cfg)
    {
        const RangeProp rp(cfg);
        for (InstIdx i = 0; i < _prog.size(); ++i) {
            const Instruction &in = _prog.inst(i);
            if (!in.isMem())
                continue;
            const unsigned size = MemDep::accessBytes(in);
            const Range ea = rp.effectiveAddress(i);
            if (ea.provablyZero()) {
                add(CheckId::kNullAccess, Severity::kError, i,
                    at(i) + ": effective address is statically null");
                continue;
            }
            if (!ea.provablyMisaligned(size))
                continue;
            std::ostringstream why;
            if (ea.isConstant()) {
                why << "0x" << std::hex << ea.lo << std::dec << " is not ";
            } else {
                why << "is provably " << ea.rem % size << " mod " << size
                    << ", never ";
            }
            why << size << "-byte aligned";
            add(CheckId::kMisalignedAccess, Severity::kError, i,
                at(i) + ": effective address " + why.str());
        }
    }

    void
    pressure(const Liveness &live)
    {
        const PressureReport p = live.pressure();
        std::ostringstream oss;
        oss << "peak register pressure: " << p.maxLiveInt << " int, "
            << p.maxLiveFp << " fp, " << p.maxLivePred
            << " pred (files hold " << isa::kNumIntRegs << "/"
            << isa::kNumFpRegs << "/" << isa::kNumPredRegs << ")";
        add(CheckId::kRegPressure,
            p.fits() ? Severity::kNote : Severity::kError,
            kInvalidInstIdx, oss.str());
    }

    const Program &_prog;
    const CheckOptions &_opts;
    Report _report;
};

} // namespace

Report
check(const Program &prog, const CheckOptions &opts)
{
    return Checker(prog, opts).run();
}

} // namespace analysis
} // namespace ff
