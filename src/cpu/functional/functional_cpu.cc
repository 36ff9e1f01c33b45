#include "cpu/functional/functional_cpu.hh"

#include "common/logging.hh"
#include "cpu/exec.hh"

namespace ff
{
namespace cpu
{

FunctionalCpu::FunctionalCpu(const isa::Program &prog)
    : _prog(prog), _mem(prog.dataImage())
{
    const std::string err = prog.validate();
    ff_fatal_if(!err.empty(), "invalid program '", prog.name(), "': ",
                err);
}

FunctionalCpu::Result
FunctionalCpu::run(std::uint64_t max_insts)
{
    while (!_res.halted && _res.instsExecuted < max_insts) {
        const InstIdx end = _prog.groupEnd(_pc);
        ++_res.groupsExecuted;
        if (_warm != nullptr)
            _warm->recordFetch(isa::Program::instAddr(_pc));

        // Phase 1: snapshot all operand reads (pre-group state).
        _ops.resize(end - _pc);
        for (InstIdx i = _pc; i < end; ++i) {
            const isa::Decoded &d = _prog.decoded(i);
            SlotOperands &o = _ops[i - _pc];
            o.qpred = _regs.read(d.qp) != 0;
            o.s1 = _regs.read(d.src1);
            o.s2 = operandSrc2(_prog.insts()[i], _regs.read(d.src2));
        }

        // Phase 2: evaluate and apply in slot order.
        InstIdx next_pc = end;
        for (InstIdx i = _pc; i < end; ++i) {
            const isa::Instruction &in = _prog.insts()[i];
            const isa::Decoded &d = _prog.decoded(i);
            const SlotOperands &o = _ops[i - _pc];
            ++_res.instsExecuted;

            if (d.isHalt()) {
                _res.halted = true;
                break;
            }

            EvalResult ev = evaluate(in, o.qpred, o.s1, o.s2);
            if (ev.isBranch) {
                ++_res.branchesExecuted;
                if (_warm != nullptr) {
                    _warm->recordBranch(isa::Program::instAddr(i),
                                        ev.taken);
                }
                if (ev.taken) {
                    ++_res.branchesTaken;
                    next_pc = static_cast<InstIdx>(in.imm);
                }
                continue;
            }
            if (!ev.predTrue)
                continue;
            if (ev.isMemAccess) {
                if (_warm != nullptr)
                    _warm->recordMem(ev.addr, !d.isLoad());
                if (d.isLoad()) {
                    ++_res.loadsExecuted;
                    ev.dstVal =
                        loadExtend(in.op, _mem.read(ev.addr, ev.size));
                } else {
                    ++_res.storesExecuted;
                    _mem.write(ev.addr, ev.storeVal, ev.size);
                }
            }
            if (ev.writesDst)
                _regs.write(d.dst[0], ev.dstVal);
            if (ev.writesDst2)
                _regs.write(d.dst[1], ev.dst2Val);
        }

        if (_res.halted)
            break;
        ff_panic_if(next_pc >= _prog.size(),
                    "functional execution ran off the program end in '",
                    _prog.name(), "'");
        _pc = next_pc;
    }
    return _res;
}

} // namespace cpu
} // namespace ff
