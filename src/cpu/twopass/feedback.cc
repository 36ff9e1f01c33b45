#include "cpu/twopass/feedback.hh"

namespace ff
{
namespace cpu
{

void
FeedbackPath::apply(Cycle now)
{
    while (!_q.empty() && _q.front().applyAt <= now) {
        const Pending f = _q.front();
        _q.pop_front();
        if (_ms.afile.applyFeedback(f.slot, f.value, f.id)) {
            ++_stats.feedbackApplied;
            if (_ms.observer != nullptr)
                _ms.observer->onFeedbackApply(now, f.id, f.slot);
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
