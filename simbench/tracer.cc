#include "tracer.hh"

#include <algorithm>
#include <utility>

namespace simbench
{

namespace
{

/** Innermost span open on this thread, or -1. */
thread_local int t_open = -1;

} // namespace

double
Tracer::now() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - _epoch)
        .count();
}

int
Tracer::begin(std::string name, std::string detail, int parent)
{
    if (!_enabled)
        return -1;
    Span s;
    s.name = std::move(name);
    s.detail = std::move(detail);
    s.parent = parent;
    std::lock_guard<std::mutex> lk(_mu);
    s.start = now();
    _spans.push_back(std::move(s));
    return static_cast<int>(_spans.size()) - 1;
}

void
Tracer::end(int id)
{
    if (id < 0)
        return;
    const double t = now();
    std::lock_guard<std::mutex> lk(_mu);
    _spans[static_cast<std::size_t>(id)].end = t;
}

std::vector<Span>
Tracer::take()
{
    std::lock_guard<std::mutex> lk(_mu);
    std::vector<Span> out;
    out.swap(_spans);
    return out;
}

Scope::Scope(Tracer &t, std::string name, std::string detail)
    : Scope(t, std::move(name), std::move(detail), t_open)
{
}

Scope::Scope(Tracer &t, std::string name, std::string detail, int parent)
    : _t(t), _id(t.begin(std::move(name), std::move(detail), parent)),
      _saved(t_open)
{
    if (_id >= 0)
        t_open = _id;
}

Scope::~Scope()
{
    _t.end(_id);
    if (_id >= 0)
        t_open = _saved;
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                 s.end);
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::vector<std::pair<double, double>> &iv = kids[i];
        // Children of one span may run concurrently on pool workers,
        // so what they cover is the union of their intervals.
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, lo = s.start, hi = s.start;
        for (auto [a, b] : iv) {
            a = std::max(a, s.start);
            b = std::min(b, s.end);
            if (b <= a)
                continue;
            if (a > hi) {
                covered += hi - lo;
                lo = a;
                hi = b;
            } else {
                hi = std::max(hi, b);
            }
        }
        covered += hi - lo;
        self[i] = (s.end - s.start) - covered;
    }
    return self;
}

} // namespace simbench
