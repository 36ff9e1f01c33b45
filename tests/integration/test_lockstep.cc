/**
 * @file
 * Lockstep differential check: every timed model must agree with the
 * functional reference at every retirement, not only at the end. A
 * test-local observer steps a FunctionalCpu to the model's retired
 * slot count on each onGroupRetire and compares the two register
 * files slot by slot; at HALT the memory fingerprints must match too.
 * A wrong value that a later write hides, which the final-fingerprint
 * checks of test_equivalence and test_property would pass, fails here
 * at the first retirement that exposes it.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "cpu/core/model_factory.hh"
#include "cpu/core/observer.hh"
#include "cpu/functional/functional_cpu.hh"
#include "workloads/workload.hh"

#include "support/random_program.hh"

namespace
{

using namespace ff;
using namespace ff::cpu;

/** Steps the reference alongside the model and records the first
 *  divergence. */
class LockstepObserver final : public CoreObserver
{
  public:
    LockstepObserver(const CpuModel &model, const isa::Program &prog)
        : _model(model), _ref(prog)
    {
    }

    void
    onGroupRetire(Cycle now, InstIdx leader, unsigned slots) override
    {
        _retired += slots;
        ++_retires;
        if (!_divergence.empty())
            return;
        const FunctionalCpu::Result r = _ref.run(_retired);
        if (r.instsExecuted != _retired) {
            std::ostringstream os;
            os << "cycle " << now << ", window at " << leader
               << ": the model retired " << _retired
               << " slots, which is not a group boundary of the "
                  "reference (it stopped at "
               << r.instsExecuted << ")";
            _divergence = os.str();
            return;
        }
        const RegFile &got = _model.archRegs();
        const RegFile &want = _ref.regs();
        for (unsigned slot = 0; slot < kNumRegSlots; ++slot) {
            const isa::RegId reg = slotReg(slot);
            if (got.read(reg) == want.read(reg))
                continue;
            std::ostringstream os;
            os << "cycle " << now << ", window at " << leader << " ("
               << slots << " slots, " << _retired
               << " retired): " << isa::regName(reg) << " = "
               << got.read(reg) << ", reference " << want.read(reg);
            _divergence = os.str();
            return;
        }
    }

    /** Empty while the model has matched at every retirement. */
    const std::string &divergence() const { return _divergence; }
    std::uint64_t retired() const { return _retired; }
    std::uint64_t retires() const { return _retires; }

    /** Runs the reference on to its HALT; returns its final result. */
    FunctionalCpu::Result finishReference() { return _ref.run(); }
    const FunctionalCpu &reference() const { return _ref; }

  private:
    const CpuModel &_model;
    FunctionalCpu _ref;
    std::uint64_t _retired = 0;
    std::uint64_t _retires = 0;
    std::string _divergence;
};

/** Runs @p kind on @p prog to HALT in lockstep with the reference. */
void
checkLockstep(const isa::Program &prog, CpuKind kind,
              const std::string &label)
{
    std::unique_ptr<CpuModel> m = makeModel(kind, prog, CoreConfig());
    LockstepObserver obs(*m, prog);
    m->setObserver(&obs);
    const RunResult r = m->run(50'000'000);
    m->setObserver(nullptr);

    ASSERT_TRUE(r.halted) << label;
    EXPECT_EQ(obs.divergence(), "") << label;
    EXPECT_GT(obs.retires(), 0u) << label;
    EXPECT_EQ(obs.retired(), r.instsRetired) << label;
    const FunctionalCpu::Result fr = obs.finishReference();
    EXPECT_TRUE(fr.halted) << label;
    EXPECT_EQ(fr.instsExecuted, r.instsRetired)
        << label << ": the reference ran past the model's HALT";
    EXPECT_EQ(m->memState().fingerprint(),
              obs.reference().mem().fingerprint())
        << label;
}

class LockstepWorkload : public ::testing::TestWithParam<std::string>
{
};

TEST_P(LockstepWorkload, EveryKindMatchesAtEveryRetirement)
{
    const workloads::Workload w =
        workloads::buildWorkload(GetParam(), 5);
    for (unsigned k = 0; k < kNumCpuKinds; ++k) {
        const CpuKind kind = static_cast<CpuKind>(k);
        checkLockstep(w.program, kind,
                      w.name + "/" + cpuKindName(kind));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, LockstepWorkload,
    ::testing::ValuesIn(workloads::workloadNames()),
    [](const auto &info) {
        std::string n = info.param;
        for (char &c : n) {
            if (c == '.')
                c = '_';
        }
        return n;
    });

TEST(Lockstep, RandomProgramsMatchAtEveryRetirement)
{
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const isa::Program p = testsupport::randomProgram(seed);
        ASSERT_EQ(p.validate(), "") << "seed " << seed;
        for (unsigned k = 0; k < kNumCpuKinds; ++k) {
            const CpuKind kind = static_cast<CpuKind>(k);
            checkLockstep(p, kind,
                          "seed " + std::to_string(seed) + "/" +
                              cpuKindName(kind));
        }
    }
}

} // namespace
