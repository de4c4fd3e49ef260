/**
 * @file
 * google-benchmark microbenchmarks of the simulator's own building
 * blocks (not a paper figure): event-queue throughput, link
 * serialization, cache and directory operations, and end-to-end
 * simulated-ops-per-second. These guard the "significantly faster"
 * property the paper claims for its simulator (Fig. 7's right panel).
 */

#include <benchmark/benchmark.h>

#include "cache/cache.hh"
#include "core/directory.hh"
#include "gpu/simulator.hh"
#include "sim/engine.hh"
#include "sim/serializer.hh"
#include "trace/workloads.hh"

using namespace hmg;

static void
BM_EngineScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        Engine e;
        for (int i = 0; i < 1000; ++i)
            e.schedule(static_cast<Tick>(i % 97), []() {});
        e.run();
        benchmark::DoNotOptimize(e.now());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineScheduleRun);

static void
BM_ChannelSend(benchmark::State &state)
{
    // One GPM's DRAM port: 192 B/cyc, back-to-back 128 B lines.
    RateSerializer wire(192.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(wire.serialize(0, 128));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelSend);

static void
BM_CacheLoadHit(benchmark::State &state)
{
    Cache c(3 * 1024 * 1024, 16, 128, true);
    for (Addr a = 0; a < 1024 * 128; a += 128)
        c.fill(a, 1);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.load(a));
        a = (a + 128) % (1024 * 128);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheLoadHit);

static void
BM_DirectoryAllocate(benchmark::State &state)
{
    Directory d(12 * 1024, 8, 512);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(d.allocate(a));
        a += 512;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DirectoryAllocate);

static void
BM_EndToEndSimulation(benchmark::State &state)
{
    auto t = trace::workloads::make("RNN_FW", 0.1);
    for (auto _ : state) {
        SystemConfig cfg;
        cfg.protocol = Protocol::Hmg;
        Simulator sim(cfg);
        auto res = sim.run(t);
        benchmark::DoNotOptimize(res.cycles);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(t.memOps()));
    state.SetLabel("items = simulated memory ops");
}
BENCHMARK(BM_EndToEndSimulation)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
