/**
 * @file
 * The backup (architectural) pipeline of Sections 3.1–3.6: per
 * cycle it prescans the retire window at the coupling-queue head for
 * blockers (dangling A-pipe results, unready deferred operands, MSHR
 * pressure), optionally fuses follow-on groups (2Pre regrouping),
 * runs merge-time ALAT checks, and applies the window — merging
 * pre-executed results into the B-file, executing deferred
 * instructions for the first time, resolving deferred branches
 * (B-DET), and scheduling feedback. Also owns both flush recoveries:
 * the B-DET misprediction flush and the store-conflict flush.
 */

#ifndef FF_CPU_TWOPASS_BPIPE_HH
#define FF_CPU_TWOPASS_BPIPE_HH

#include "cpu/cpu.hh"
#include "cpu/twopass/feedback.hh"
#include "cpu/twopass/pipe_context.hh"
#include "cpu/twopass/regrouper.hh"

namespace ff
{
namespace cpu
{

/** The B-pipe merge/retire stage unit. */
class BPipe
{
  public:
    BPipe(const PipeContext &ctx, FeedbackPath &feedback)
        : _ctx(ctx), _feedback(feedback)
    {
    }

    /**
     * One retire attempt at @p now.
     * @return the cycle's classification; retires the head window
     *         (and possibly flushes) when progress was made
     */
    CycleClass step(Cycle now, RunResult &res);

    /**
     * Scans the retire window for the first blocker.
     * @param w the window at the coupling-queue head
     * @param now the current cycle
     * @param until if not null, receives the cycle before which the
     *        verdict cannot change while the B-pipe does nothing: the
     *        blocker's ready cycle when the window waits on a dangling
     *        pre-executed result or on a scoreboard-pending operand of
     *        a deferred entry, otherwise @p now
     * @return kUnstalled when the whole window may retire
     */
    CycleClass prescanWindow(const RetireWindow &w, Cycle now,
                             Cycle *until = nullptr) const;

    /**
     * The cycle before which step() repeats its last verdict, while
     * the A-pipe and the front end stay quiet: the stall memo's ready
     * cycle, or kNeverCycle when the queue is empty (only a dispatch
     * or a new front-end head changes that verdict). A verdict that is
     * not held reports a cycle already reached.
     */
    Cycle
    heldUntil() const
    {
        return _ctx.ms.cq.empty() ? kNeverCycle : _stallUntil;
    }

    /**
     * Drops the stall memo, so the next step() rescans the window.
     * The memo is derived state: a restored model starts without one.
     */
    void clearStallMemo() { _stallUntil = 0; }

    // Exposed for direct unit testing against hand-built fixtures.

    /** B-DET misprediction flush (Sec. 3.6). */
    void bDetFlush(const CqEntry &branch, bool taken, Cycle now);
    /** Store-conflict flush (Sec. 3.4). */
    void conflictFlush(const CqEntry &offender, Cycle now);

  private:
    void applyWindow(const RetireWindow &w, Cycle now, RunResult &res);

    PipeContext _ctx;
    FeedbackPath &_feedback;

    /**
     * Stall memo (DESIGN.md §9): until cycle _stallUntil, step()
     * returns _stallClass without rescanning the head window. Set only
     * for a blocker with a known ready cycle; nothing the prescan reads
     * can change before then, because only this pipe pops the queue,
     * writes the B-file and its scoreboard, or flushes.
     */
    Cycle _stallUntil = 0;
    CycleClass _stallClass = CycleClass::kUnstalled;
};

} // namespace cpu
} // namespace ff

#endif // FF_CPU_TWOPASS_BPIPE_HH
