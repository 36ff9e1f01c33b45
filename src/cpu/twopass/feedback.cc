#include "cpu/twopass/feedback.hh"

namespace ff
{
namespace cpu
{

void
FeedbackPath::schedule(const isa::Instruction &in, DynId id, Cycle now)
{
    if (!_cfg.feedbackEnabled)
        return;
    std::array<isa::RegId, 2> dsts;
    const unsigned nd = in.destinations(dsts);
    for (unsigned d = 0; d < nd; ++d) {
        _q.push_back({dsts[d], _ms.regs.read(dsts[d]), id,
                      now + _cfg.feedbackLatency});
    }
}

void
FeedbackPath::apply(Cycle now)
{
    while (!_q.empty() && _q.front().applyAt <= now) {
        const Pending f = _q.front();
        _q.pop_front();
        if (_ms.afile.applyFeedback(f.reg, f.value, f.id)) {
            ++_stats.feedbackApplied;
            if (_ms.observer != nullptr) {
                _ms.observer->onFeedbackApply(
                    now, f.id,
                    static_cast<unsigned>(regSlot(f.reg)));
            }
        } else {
            ++_stats.feedbackDropped;
        }
    }
}

void
FeedbackPath::squashYoungerThan(DynId boundary)
{
    while (!_q.empty() && _q.back().id > boundary)
        _q.pop_back();
}

} // namespace cpu
} // namespace ff
