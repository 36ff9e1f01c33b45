/**
 * @file
 * The benchmark's span recorder. A span is taken around one call into
 * a simulator layer, from outside the simulator: its name, start, end
 * and the span that caused it. Spans stay in memory until the harness
 * reads them after a traced repeat; a layer's self time is its span's
 * duration minus the part of it that its child spans cover.
 */

#ifndef SIMBENCH_TRACER_HH
#define SIMBENCH_TRACER_HH

#include <chrono>
#include <mutex>
#include <string>
#include <vector>

namespace simbench
{

/** One recorded layer call; times are seconds since the tracer began. */
struct Span
{
    std::string name;   ///< "<layer>.<call>", e.g. "cpu.run"
    std::string detail; ///< what the call worked on, e.g. "181.mcf/2P"
    double start = 0.0;
    double end = 0.0;
    int parent = -1; ///< index of the enclosing span; -1 at top level
};

/**
 * Thread-safe in-memory span store. A disabled tracer records nothing
 * and its scopes cost a branch, so the traced and the untraced repeats
 * of a workload make the same calls.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : _enabled(enabled) {}
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return _enabled; }

    /** Opens a span and returns its id (-1 when disabled). */
    int begin(std::string name, std::string detail, int parent);

    /** Closes span @p id; a no-op for -1. */
    void end(int id);

    /** Every span recorded since the last take(), which forgets them.
     *  Call only when no span is open. */
    std::vector<Span> take();

  private:
    double now() const;

    const bool _enabled;
    const std::chrono::steady_clock::time_point _epoch =
        std::chrono::steady_clock::now();
    std::mutex _mu; // guards _spans
    std::vector<Span> _spans;
};

/**
 * RAII span. Its parent is the innermost scope open on the calling
 * thread unless given: pool workers pass their phase span's id.
 */
class Scope
{
  public:
    Scope(Tracer &t, std::string name, std::string detail = {});
    Scope(Tracer &t, std::string name, std::string detail, int parent);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int id() const { return _id; }

  private:
    Tracer &_t;
    int _id;
    int _saved; ///< the thread's innermost open span before this one
};

/** Self time in seconds of each span of @p spans, by index. */
std::vector<double> selfTimes(const std::vector<Span> &spans);

} // namespace simbench

#endif // SIMBENCH_TRACER_HH
