/**
 * @file
 * google-benchmark microbenchmarks of the simulator's own building
 * blocks (not a paper figure): event-queue throughput, link
 * serialization, one message across the fabric, one protocol handler
 * round trip, cache, tag-array, tag-store and directory operations, and
 * end-to-end simulated-ops-per-second. These guard the "significantly faster"
 * property the paper claims for its simulator (Fig. 7's right panel).
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "cache/cache.hh"
#include "cache/tag_array.hh"
#include "common/rng.hh"
#include "core/directory.hh"
#include "gpu/simulator.hh"
#include "gpu/system.hh"
#include "noc/network.hh"
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
BM_PortHop(benchmark::State &state)
{
    // One message GPM 0 -> GPM 4 (cross GPU: four ports) per iteration,
    // carrying a closure the size of the protocols' fattest (184 bytes,
    // a write-through's; see Engine::Callback), run to delivery.
    struct Fat
    {
        std::uint64_t *sum;
        unsigned char pad[176];
        void operator()() const { ++*sum; }
    };
    static_assert(sizeof(Fat) == 184);
    SystemConfig cfg;
    Engine e;
    Network net(e, cfg);
    std::uint64_t sum = 0;
    for (auto _ : state) {
        net.inject({.src = 0,
                    .dst = 4,
                    .type = MsgType::ReadResp,
                    .onArrival = Fat{&sum, {}}});
        e.run();
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PortHop);

static void
BM_RemoteLoadRoundTrip(benchmark::State &state)
{
    // One load from SM 0 (GPM 0) of a line homed at GPM 4, the first GPM
    // of GPU 1, through the default System (HMG), run to completion. GPM
    // 0 is GPU 0's home for those lines, so a load pays its tag checks,
    // misses, parks in the MSHR, crosses the fabric as a ReadReq, is
    // served by the remote home and returns as a ReadResp that fills
    // GPM 0 and wakes the waiter. The lines are one L2 set apart and
    // one more than the ways, so every load misses at GPM 0 (and reads
    // DRAM at the home).
    SystemConfig cfg;
    System sys(cfg);
    const GpmId home = cfg.gpmId(1, 0);
    const Addr stride = cfg.l2BytesPerGpm() / cfg.l2Ways;
    std::vector<Addr> lines;
    for (Addr k = 0; k <= cfg.l2Ways; ++k) {
        lines.push_back(k * stride);
        sys.pageTable().touch(k * stride, home);
    }
    std::uint64_t sum = 0;
    std::size_t k = 0;
    for (auto _ : state) {
        sys.model().load({.sm = 0, .gpm = 0, .lineAddr = lines[k]},
                         [&sum](Version v) { sum += v + 1; });
        sys.engine().run();
        k = (k + 1) % lines.size();
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations());
    state.SetLabel("items = loads answered by a remote home");
}
BENCHMARK(BM_RemoteLoadRoundTrip);

static void
BM_TagProbeEmptySet(benchmark::State &state)
{
    // An L1 (128 KB, 8-way) filled, then bulk-invalidated: every probe
    // lands in a set with nothing live, as after each acquire.
    TagArray tags = TagArray::fromCapacity(128 * 1024, 8, 128);
    const Addr span = 1024 * 128;
    for (Addr a = 0; a < span; a += 128)
        tags.insert(a);
    tags.invalidateAll();
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tags.lookup(a));
        a = (a + 128) % span;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TagProbeEmptySet);

static void
BM_TagStoreProbe(benchmark::State &state)
{
    // A load's tag path over a default System's arrays: its SM's L1
    // looked up, on a miss its GPM's L2, each filled on a miss. Lines
    // are drawn at random from a 10 MB footprint, so probes land at
    // random across 512 L1 and 16 L2 arrays (22 MB of tags). `shared`
    // takes the arrays from the System's one store, on huge pages where
    // the kernel grants them; otherwise each array has its own mapping,
    // and the difference is the TLB's share of a probe on this host.
    const bool shared = state.range(0) != 0;
    const SystemConfig cfg;
    System sys(cfg);
    std::vector<TagArray> own;
    std::vector<TagArray *> l1, l2;
    if (!shared) {
        own.reserve(cfg.totalSms() + cfg.totalGpms());
        for (SmId s = 0; s < cfg.totalSms(); ++s)
            own.push_back(TagArray::fromCapacity(cfg.l1Bytes, cfg.l1Ways,
                                                 cfg.cacheLineBytes));
        for (GpmId g = 0; g < cfg.totalGpms(); ++g)
            own.push_back(TagArray::fromCapacity(
                cfg.l2BytesPerGpm(), cfg.l2Ways, cfg.cacheLineBytes));
    }
    for (SmId s = 0; s < cfg.totalSms(); ++s)
        l1.push_back(shared ? &sys.sm(s).l1().tags() : &own[s]);
    for (GpmId g = 0; g < cfg.totalGpms(); ++g)
        l2.push_back(shared ? &sys.gpm(g).l2().tags()
                            : &own[cfg.totalSms() + g]);

    struct Access
    {
        SmId sm;
        Addr line;
    };
    const std::uint64_t lines = (10u << 20) / cfg.cacheLineBytes;
    std::vector<Access> accesses(1u << 20);
    Rng rng(1);
    for (Access &a : accesses)
        a = {static_cast<SmId>(rng.below(cfg.totalSms())),
             rng.below(lines) * cfg.cacheLineBytes};
    auto probe = [&](const Access &a) {
        TagArray &t1 = *l1[a.sm];
        CacheLine *line = t1.lookup(a.line);
        if (!line) {
            TagArray &t2 = *l2[cfg.gpmOfSm(a.sm)];
            if (!t2.lookup(a.line))
                t2.insert(a.line);
            line = t1.insert(a.line);
        }
        return line;
    };
    // One untimed pass faults every page in and fills the arrays.
    for (const Access &a : accesses)
        benchmark::DoNotOptimize(probe(a));
    std::size_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(probe(accesses[i++ & (accesses.size() - 1)]));
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(shared ? "one store" : "a private store per array");
}
BENCHMARK(BM_TagStoreProbe)->ArgName("shared")->Arg(1)->Arg(0);

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

static void
BM_SmWarpStep(benchmark::State &state)
{
    // A warp step cannot be timed apart from the engine and the memory
    // below it, so this times the cell whose events are almost all
    // SM-side: cuSolver under SW-NonHier (few messages, no directory).
    auto t = trace::workloads::make("cusolver", 0.25);
    for (auto _ : state) {
        SystemConfig cfg;
        cfg.protocol = Protocol::SwNonHier;
        Simulator sim(cfg);
        auto res = sim.run(t);
        benchmark::DoNotOptimize(res.cycles);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(t.memOps()));
    state.SetLabel("items = simulated memory ops, cusolver-swnh cell");
}
BENCHMARK(BM_SmWarpStep)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
