/**
 * @file
 * The explicit interface between the two-pass core's stage units.
 * TwoPassCpu (via CpuModel) owns every structure; APipe, BPipe and
 * FeedbackPath see the dense per-cycle state through one MachineState
 * reference — the A-file, the B-file and its scoreboard, the coupling
 * queue, and the shared pipe state both pipes mutate (dynamic-id
 * allocation, the A-pipe halt latch, the conflict-retry fallback set,
 * the observer attachment) — plus references to the structural
 * subsystems (front end, hierarchy, store buffer, ALAT). A test can
 * stand up the components by hand, wrap them in a PipeContext, and
 * drive a single stage unit in isolation.
 */

#ifndef FF_CPU_TWOPASS_PIPE_CONTEXT_HH
#define FF_CPU_TWOPASS_PIPE_CONTEXT_HH

#include "branch/predictor.hh"
#include "cpu/config.hh"
#include "cpu/frontend.hh"
#include "cpu/model_stats.hh"
#include "cpu/state/machine_state.hh"
#include "memory/alat.hh"
#include "memory/hierarchy.hh"
#include "memory/sparse_memory.hh"
#include "memory/store_buffer.hh"

namespace ff
{
namespace cpu
{

/** Reference bundle handed to each stage unit at construction. */
struct PipeContext
{
    const isa::Program &prog;
    const CoreConfig &cfg;
    FrontEnd &fe;
    branch::DirectionPredictor &pred;
    memory::Hierarchy &hier;
    memory::SparseMemory &mem; ///< architectural memory
    MachineState &ms;          ///< A-file, B-file/scoreboard, CQ, shared
    memory::StoreBuffer &sbuf;
    memory::Alat &alat;
    TwoPassStats &stats;
};

} // namespace cpu
} // namespace ff

#endif // FF_CPU_TWOPASS_PIPE_CONTEXT_HH
