/**
 * @file
 * google-benchmark microbenchmarks of the simulator's building
 * blocks: cache tag probes, ALAT traffic, store-buffer forwarding,
 * the list scheduler, and whole-machine simulation rates. These
 * guard the simulator's own performance (cycles simulated per
 * second), which bounds how large an input the experiments can use.
 */

#include <atomic>

#include <benchmark/benchmark.h>

#include "branch/gshare.hh"
#include "common/thread_pool.hh"
#include "compiler/scheduler.hh"
#include "cpu/core/model_factory.hh"
#include "cpu/functional/functional_cpu.hh"
#include "memory/alat.hh"
#include "memory/cache.hh"
#include "memory/hierarchy.hh"
#include "memory/store_buffer.hh"
#include "sim/batch.hh"
#include "workloads/workload.hh"

using namespace ff;

namespace
{

void
BM_CacheAccess(benchmark::State &state)
{
    memory::Cache cache("l1", {16 * 1024, 4, 64, 2});
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(a, false));
        a = (a + 4096 + 64) & 0xFFFFF;
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_HierarchyLoad(benchmark::State &state)
{
    memory::Hierarchy hier(memory::MemoryConfig{});
    Cycle now = 0;
    Addr a = 0;
    for (auto _ : state) {
        hier.tick(now);
        benchmark::DoNotOptimize(hier.access(
            memory::AccessKind::kLoad, memory::Initiator::kBaseline, a,
            now));
        a = (a + 8192 + 64) & 0x3FFFFF;
        ++now;
    }
}
BENCHMARK(BM_HierarchyLoad);

void
BM_AlatAllocateInvalidate(benchmark::State &state)
{
    memory::Alat alat(0);
    DynId id = 1;
    for (auto _ : state) {
        alat.allocate(id, id * 8, 8);
        alat.invalidateOverlap(id * 8 - 16, 8);
        alat.remove(id);
        ++id;
    }
}
BENCHMARK(BM_AlatAllocateInvalidate);

void
BM_StoreBufferForward(benchmark::State &state)
{
    memory::StoreBuffer sbuf(64);
    memory::SparseMemory mem;
    for (DynId i = 1; i <= 32; ++i)
        sbuf.insert(i, i * 8, 8, i);
    DynId load_id = 100;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sbuf.read(load_id, 16 * 8, 8, mem, nullptr));
    }
}
BENCHMARK(BM_StoreBufferForward);

void
BM_GsharePredict(benchmark::State &state)
{
    branch::GsharePredictor pred(1024);
    Addr pc = 0x40000000;
    for (auto _ : state) {
        auto p = pred.predict(pc);
        pred.update(p, (pc >> 6) & 1);
        pc += 0x40;
    }
}
BENCHMARK(BM_GsharePredict);

void
BM_ScheduleMcf(benchmark::State &state)
{
    for (auto _ : state) {
        workloads::Workload w = workloads::buildWorkload("181.mcf", 5);
        benchmark::DoNotOptimize(w.program.size());
    }
}
BENCHMARK(BM_ScheduleMcf)->Unit(benchmark::kMillisecond);

/** Whole-machine simulation rate, reported as cycles/second. */
void
simRate(benchmark::State &state, cpu::CpuKind kind,
        const char *workload)
{
    workloads::Workload w = workloads::buildWorkload(workload, 5);
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        auto model = cpu::makeModel(kind, w.program, cpu::CoreConfig());
        auto r = model->run(UINT64_MAX);
        cycles += r.cycles;
    }
    state.counters["cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}

void
BM_SimulateFunctional(benchmark::State &state)
{
    workloads::Workload w = workloads::buildWorkload("181.mcf", 5);
    std::uint64_t insts = 0;
    for (auto _ : state) {
        cpu::FunctionalCpu model(w.program);
        insts += model.run().instsExecuted;
    }
    state.counters["insts/s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateFunctional)->Unit(benchmark::kMillisecond);

void
BM_SimulateBaseline(benchmark::State &state)
{
    simRate(state, cpu::CpuKind::kBaseline, "181.mcf");
}
BENCHMARK(BM_SimulateBaseline)->Unit(benchmark::kMillisecond);

void
BM_SimulateTwoPass(benchmark::State &state)
{
    simRate(state, cpu::CpuKind::kTwoPass, "181.mcf");
}
BENCHMARK(BM_SimulateTwoPass)->Unit(benchmark::kMillisecond);

/** Per-loop overhead of the experiment engine's thread pool. */
void
BM_ThreadPoolParallelFor(benchmark::State &state)
{
    ThreadPool pool(static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        std::atomic<unsigned> n{0};
        pool.parallelFor(256, [&](std::size_t) {
            n.fetch_add(1, std::memory_order_relaxed);
        });
        benchmark::DoNotOptimize(n.load());
    }
}
BENCHMARK(BM_ThreadPoolParallelFor)->Arg(1)->Arg(4);

/**
 * End-to-end batch rate: the whole suite's worth of model variety on
 * one small workload, serial vs the default (hardware) job count.
 * Argument 0 resolves per FF_JOBS/hardware concurrency.
 */
void
BM_RunBatch(benchmark::State &state)
{
    workloads::Workload w = workloads::buildWorkload("181.mcf", 5);
    std::vector<sim::SimJob> jobs;
    for (sim::CpuKind kind :
         {sim::CpuKind::kBaseline, sim::CpuKind::kTwoPass,
          sim::CpuKind::kTwoPassRegroup, sim::CpuKind::kRunahead}) {
        sim::SimJob j;
        j.program = &w.program;
        j.kind = kind;
        jobs.push_back(j);
    }
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        const auto outcomes = sim::runBatch(
            jobs, static_cast<unsigned>(state.range(0)));
        for (const auto &o : outcomes)
            cycles += o.run.cycles;
    }
    state.counters["cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RunBatch)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
