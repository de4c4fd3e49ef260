/**
 * @file
 * Event-kernel and sweep-layer performance tracking.
 *
 * Two measurements, emitted as BENCH_engine.json so the perf trajectory
 * is recorded from PR to PR:
 *
 *  1. events/sec of the timing-wheel Engine vs the seed implementation
 *     (std::priority_queue of std::function closures, reproduced below
 *     verbatim as SeedPqEngine), on a self-rescheduling near-future
 *     event pattern shaped like real cache/NoC traffic — measured with
 *     both small closures and protocol-sized ~112-byte closures, with
 *     ~256 events live (the slab fits in the host's L1/L2), and for the
 *     wheel also with 24,832 live (cusolver-swnh's peak: megabytes of
 *     slots, so most pops miss the host caches);
 *
 *  2. wall-clock of a workload x protocol sweep run serially vs on the
 *     SweepRunner pool, with a bit-identical-results check. The check
 *     failing is an exit-code failure: the `bench_smoke` ctest target
 *     runs this binary, so a determinism regression (or a rotted perf
 *     harness) fails CI.
 *
 *  3. wall-clock of one large Fig. 8 cell run serially, under the
 *     deterministic PDES merge (with a bit-identity check) and under the
 *     threaded conservative time-window mode, with the sync-overhead
 *     counters from the run's own pdes.* statistics.
 *
 *  4. simulator wall-clock and simulated cycles at the 16/32/64-GPU
 *     scale-out shapes (nodes of 8 GPUs x 2 GPMs behind node switch
 *     tiers), so the cost of growing the machine model is tracked from
 *     PR to PR alongside the sensitivity results in bench_scaleout.
 *
 *  5. end-to-end simulated memory ops per host second of one serial
 *     cell — cuSolver under SW-NonHier at scale 0.25, best of three,
 *     trace generated outside the timing — the cell perf_smoke gates.
 *
 *  6. wall-clock of the whole Fig. 8 suite (the 20 x 6 cells
 *     bench_fig8_main runs, at HMG_BENCH_SCALE like it) with one worker
 *     and with four, plus the process CPU seconds of the four-worker
 *     run.
 *
 * Flags: --events N, --jobs N, --sweep-scale X, --pdes-scale X,
 * --scaleout-scale X, --kernel-only (the wheel's throughput with few and
 * with many live events only, for tools/perf_smoke.sh),
 * --invalidate-only (bulk tag-array invalidation cost at L1 and L2 size
 * only, for tools/perf_smoke.sh), --cell-only (the serial cell's op/s
 * only, for tools/perf_smoke.sh), --out FILE.
 * Numbers parse strictly, as in hmgsim: a malformed or out-of-range
 * value, or an unknown flag, is a one-line fatal and exit 1.
 *
 * The JSON's `engine` and `cell` sections record the host they were
 * measured on (host_cores, compiler, build type), since perf_smoke's
 * floors are fractions of their wheel_events_per_sec and ops_per_sec.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "cache/tag_array.hh"
#include "common/cli.hh"
#include "common/log.hh"
#include "gpu/simulator.hh"
#include "sim/engine.hh"
#include "sim/sweep.hh"
#include "trace/workloads.hh"

namespace
{

using hmg::Tick;

/**
 * The seed event kernel, kept as the fixed reference point for the
 * events/sec ratio: a binary heap of heap-allocated std::function
 * closures, with the const_cast move-out-of-priority_queue idiom.
 */
class SeedPqEngine
{
  public:
    using Callback = std::function<void()>;

    Tick now() const { return now_; }

    void schedule(Tick delay, Callback cb)
    {
        scheduleAt(now_ + delay, std::move(cb));
    }

    void scheduleAt(Tick when, Callback cb)
    {
        queue_.push(Event{when, nextSeq_++, std::move(cb)});
    }

    bool runOne()
    {
        if (queue_.empty())
            return false;
        auto &top = const_cast<Event &>(queue_.top());
        now_ = top.when;
        Callback cb = std::move(top.cb);
        queue_.pop();
        ++executed_;
        cb();
        return true;
    }

    Tick run()
    {
        while (!queue_.empty())
            runOne();
        return now_;
    }

    std::uint64_t eventsExecuted() const { return executed_; }

  private:
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
    };
    struct Later
    {
        bool operator()(const Event &a, const Event &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };
    std::priority_queue<Event, std::vector<Event>, Later> queue_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Live event chains of the default kernel measurement. */
constexpr Tick kNarrowChains = 256;
/** Peak live events of the cusolver-swnh hostbench cell (scale 1). */
constexpr Tick kWideChains = 24'832;

/**
 * Self-rescheduling event chains: each event draws a near-future delay
 * (1..797 cycles — the hit/hop/DRAM latency band) and schedules its
 * successor, so the engine sees a steady queue of `chains` pending
 * events, like a busy simulation.
 */
template <typename EngineT, typename PumpT>
double
eventsPerSec(std::uint64_t total_events, Tick chains = kNarrowChains)
{
    double best = 0;
    for (int rep = 0; rep < 3; ++rep) {
        EngineT e;
        std::uint64_t budget = total_events;
        std::uint32_t lcg = 0xdecafbadu;
        for (Tick i = 0; i < chains && budget > 0; ++i) {
            --budget;
            e.schedule(i % 97 + 1, PumpT{&e, &budget, &lcg, {}});
        }
        const auto t0 = std::chrono::steady_clock::now();
        e.run();
        const double secs = secondsSince(t0);
        best = std::max(
            best, static_cast<double>(e.eventsExecuted()) / secs);
    }
    return best;
}

template <typename EngineT, std::size_t PadBytes>
struct Pump
{
    EngineT *e;
    std::uint64_t *budget;
    std::uint32_t *lcg;
    unsigned char pad[PadBytes];

    void operator()() const
    {
        if (*budget == 0)
            return;
        --*budget;
        *lcg = *lcg * 1664525u + 1013904223u;
        e->schedule((*lcg >> 10) % 797 + 1, Pump(*this));
    }
};

/**
 * Median host nanoseconds of one TagArray::invalidateAll() on an array
 * of the given geometry, timed call by call with the same ten lines
 * refilled (untimed) before each. Software coherence drops every L1 on
 * each acquire and every L2 at kernel boundaries, so this must not grow
 * with capacity.
 */
double
bulkInvalidateNs(std::uint64_t capacity_bytes, std::uint32_t ways,
                 std::size_t calls)
{
    hmg::TagArray tags = hmg::TagArray::fromCapacity(capacity_bytes, ways,
                                                     128);
    std::vector<double> ns(calls);
    for (double &t : ns) {
        for (hmg::Addr line = 0; line < 10; ++line)
            tags.insert(line * 128);
        const auto t0 = std::chrono::steady_clock::now();
        const std::uint64_t dropped = tags.invalidateAll();
        t = secondsSince(t0) * 1e9;
        hmg_assert(dropped == 10);
    }
    std::nth_element(ns.begin(), ns.begin() + calls / 2, ns.end());
    return ns[calls / 2];
}

struct SweepTiming
{
    std::size_t cells = 0;
    unsigned jobs = 1;
    double serial_seconds = 0;
    double parallel_seconds = 0;
    bool bit_identical = false;
};

bool
sameResults(const std::vector<hmg::SimResult> &a,
            const std::vector<hmg::SimResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].cycles != b[i].cycles ||
            a[i].stats.all() != b[i].stats.all())
            return false;
    }
    return true;
}

SweepTiming
measureSweep(double scale, unsigned jobs)
{
    std::vector<hmg::SweepCell> cells;
    for (const auto &name : hmgbench::sensitivitySuite()) {
        for (auto p : {hmg::Protocol::NoRemoteCache,
                       hmg::Protocol::SwNonHier, hmg::Protocol::Hmg}) {
            hmg::SystemConfig cfg;
            cfg.protocol = p;
            cells.push_back({name, cfg, scale, 1});
        }
    }

    SweepTiming t;
    t.cells = cells.size();

    auto t0 = std::chrono::steady_clock::now();
    const auto serial = hmg::SweepRunner(1).run(cells);
    t.serial_seconds = secondsSince(t0);

    hmg::SweepRunner pool(jobs);
    t.jobs = pool.jobs();
    t0 = std::chrono::steady_clock::now();
    const auto parallel = pool.run(cells);
    t.parallel_seconds = secondsSince(t0);

    t.bit_identical = sameResults(serial, parallel);
    return t;
}

/**
 * Conservative-PDES timing: ONE large Fig. 8 cell (the default 4-GPU x
 * 4-GPM machine at full scale) run three ways — serial, `--lp-jobs 4
 * --deterministic` (merge overhead + a bit-identity check), and
 * `--lp-jobs 4` time-window (the threaded mode) — with the sync-overhead
 * counters (null messages, window stalls, lookahead utilization) pulled
 * from the run's own pdes.* statistics.
 */
struct PdesTiming
{
    std::string workload;
    double scale = 1.0;
    unsigned lps = 4;
    double serial_seconds = 0;
    double det_seconds = 0;
    double tw_seconds = 0;
    bool det_identical = false;
    hmg::Tick serial_cycles = 0;
    hmg::Tick tw_cycles = 0;
    double windows = 0;
    double boundary_msgs = 0;
    double null_msgs = 0;
    double window_stalls = 0;
    double cross_lp_posts = 0;
    double lookahead_util = 0;
};

PdesTiming
measurePdes(const std::string &workload, double scale, unsigned lps)
{
    PdesTiming t;
    t.workload = workload;
    t.scale = scale;
    t.lps = lps;
    const auto trace = hmg::trace::workloads::make(workload, scale);

    hmg::SystemConfig cfg;
    cfg.protocol = hmg::Protocol::Hmg;

    auto t0 = std::chrono::steady_clock::now();
    const auto serial = hmg::Simulator(cfg).run(trace);
    t.serial_seconds = secondsSince(t0);
    t.serial_cycles = serial.cycles;

    hmg::SystemConfig dcfg = cfg;
    dcfg.lpJobs = lps;
    dcfg.lpDeterministic = true;
    t0 = std::chrono::steady_clock::now();
    const auto det = hmg::Simulator(dcfg).run(trace);
    t.det_seconds = secondsSince(t0);
    t.det_identical = det.cycles == serial.cycles &&
                      det.stats.all() == serial.stats.all();

    hmg::SystemConfig wcfg = cfg;
    wcfg.lpJobs = lps;
    t0 = std::chrono::steady_clock::now();
    const auto tw = hmg::Simulator(wcfg).run(trace);
    t.tw_seconds = secondsSince(t0);
    t.tw_cycles = tw.cycles;
    t.windows = tw.stats.get("pdes.windows");
    t.boundary_msgs = tw.stats.get("pdes.boundary_msgs");
    t.null_msgs = tw.stats.get("pdes.null_msgs");
    t.window_stalls = tw.stats.get("pdes.lp_stall_windows");
    t.cross_lp_posts = tw.stats.get("pdes.cross_lp_posts");
    t.lookahead_util = tw.stats.get("pdes.lookahead_util");
    return t;
}

/**
 * Scale-out cost tracking: one workload per machine size, HMG vs the
 * broadcast-based software protocol, on the node-tier shapes the
 * topology model added (16 GPUs = 2 nodes, 32 = 4, 64 = 8; 8 GPUs x
 * 2 GPMs per node, SM count held at 8/GPU so the trace size stays
 * comparable to the default 4x4 machine).
 */
struct ScaleoutPoint
{
    unsigned gpus = 0;
    unsigned nodes = 0;
    unsigned gpms = 0;
    bool nhcc_trackable = false;
    double hmg_seconds = 0;
    hmg::Tick hmg_cycles = 0;
    hmg::Tick swnh_cycles = 0;
    // Directory-capacity pressure (4096 entries/GPM at these shapes):
    // evictions per allocation is the "directory becomes the wall"
    // signal the ROADMAP question asks about.
    double dir_allocations = 0;
    double dir_evictions = 0;
    // Inter-tier bandwidth: average utilization of the GPU-switch and
    // node-uplink tiers over the run.
    double inter_gpu_util = 0;
    double inter_node_util = 0;
};

std::vector<ScaleoutPoint>
measureScaleout(const std::string &workload, double scale)
{
    std::vector<ScaleoutPoint> points;
    for (unsigned gpus : {16u, 32u, 64u}) {
        hmg::SystemConfig cfg;
        cfg.numNodes = gpus / 8;
        cfg.numGpus = gpus;
        cfg.gpmsPerGpu = 2;
        cfg.smsPerGpu = 8;
        cfg.l2BytesPerGpu = 4 * 1024 * 1024;
        cfg.dirEntriesPerGpm = 4096;

        ScaleoutPoint pt;
        pt.gpus = gpus;
        pt.nodes = cfg.numNodes;
        pt.gpms = cfg.totalGpms();
        pt.nhcc_trackable = cfg.totalGpms() <= 32;

        const auto trace =
            hmg::trace::workloads::make(workload, scale);
        cfg.protocol = hmg::Protocol::Hmg;
        auto t0 = std::chrono::steady_clock::now();
        const auto hmg_res = hmg::Simulator(cfg).run(trace);
        pt.hmg_seconds = secondsSince(t0);
        pt.hmg_cycles = hmg_res.cycles;
        pt.dir_allocations = hmg_res.stats.get("total.dir.allocations");
        pt.dir_evictions = hmg_res.stats.get("total.dir.evictions");
        pt.inter_gpu_util = hmg_res.stats.get("noc.inter_gpu.util_avg");
        pt.inter_node_util =
            hmg_res.stats.get("noc.inter_node.util_avg");

        cfg.protocol = hmg::Protocol::SwNonHier;
        pt.swnh_cycles = hmg::Simulator(cfg).run(trace).cycles;
        points.push_back(pt);
    }
    return points;
}

/** The perf_smoke cell: cuSolver under SW-NonHier, serial. */
struct CellTiming
{
    const char *workload = "cusolver";
    const char *protocol = "swnh";
    double scale = 0.25;
    std::uint64_t mem_ops = 0;
    double ops_per_sec = 0;
};

CellTiming
measureCell()
{
    CellTiming t;
    const auto trace = hmg::trace::workloads::make(t.workload, t.scale);
    hmg::SystemConfig cfg;
    cfg.protocol = hmg::Protocol::SwNonHier;
    t.mem_ops = trace.memOps();
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto res = hmg::Simulator(cfg).run(trace);
        const double secs = secondsSince(t0);
        hmg_assert(res.memOps == t.mem_ops);
        t.ops_per_sec = std::max(t.ops_per_sec,
                                 static_cast<double>(t.mem_ops) / secs);
    }
    return t;
}

double
processCpuSeconds()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) *
               1e-6;
}

/** The Fig. 8 suite, timed with one worker and with four. */
struct Fig8Timing
{
    std::size_t cells = 0;
    double scale = 1.0;
    double serial_seconds = 0;
    unsigned jobs = 4;
    double parallel_seconds = 0;
    double parallel_cpu_seconds = 0;
};

Fig8Timing
measureFig8()
{
    const std::vector<hmg::SweepCell> cells = hmgbench::fig8Cells();
    Fig8Timing t;
    t.cells = cells.size();
    t.scale = hmgbench::benchScale();
    auto t0 = std::chrono::steady_clock::now();
    hmg::SweepRunner(1).run(cells);
    t.serial_seconds = secondsSince(t0);
    const double cpu0 = processCpuSeconds();
    t0 = std::chrono::steady_clock::now();
    hmg::SweepRunner(t.jobs).run(cells);
    t.parallel_seconds = secondsSince(t0);
    t.parallel_cpu_seconds = processCpuSeconds() - cpu0;
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t events = 2'000'000;
    double sweep_scale = 0.25;
    double pdes_scale = 1.0;
    double scaleout_scale = 0.25;
    unsigned jobs = 0; // SweepRunner default: HMG_JOBS, else every core
    bool kernel_only = false;
    bool invalidate_only = false;
    bool cell_only = false;
    std::string out_path = "BENCH_engine.json";
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            hmg_fatal("missing value for %s", argv[i]);
        return argv[++i];
    };
    auto scale = [&](const char *flag, int &i) {
        const double v = hmg::parseF64(flag, need(i), 0.0, 1e6);
        if (v <= 0.0)
            hmg_fatal("%s wants a positive factor", flag);
        return v;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--events")
            events = hmg::parseU64("--events", need(i), 1);
        else if (a == "--jobs")
            jobs = static_cast<unsigned>(
                hmg::parseU64("--jobs", need(i), 1, 4096));
        else if (a == "--sweep-scale")
            sweep_scale = scale("--sweep-scale", i);
        else if (a == "--pdes-scale")
            pdes_scale = scale("--pdes-scale", i);
        else if (a == "--scaleout-scale")
            scaleout_scale = scale("--scaleout-scale", i);
        else if (a == "--kernel-only")
            kernel_only = true;
        else if (a == "--invalidate-only")
            invalidate_only = true;
        else if (a == "--cell-only")
            cell_only = true;
        else if (a == "--out")
            out_path = need(i);
        else
            hmg_fatal("unknown option '%s'", a.c_str());
    }

    hmgbench::banner("engine microbench: events/sec + sweep wall-clock",
                     "perf harness (no paper figure)");

    if (invalidate_only) {
        // Machine-greppable lines for tools/perf_smoke.sh: an L1 (128 KB,
        // 8-way) and an L2 slice (3 MB, 16-way) holding the same lines.
        std::printf("bulk_invalidate_l1_ns %.1f\n",
                    bulkInvalidateNs(128 * 1024, 8, 20'000));
        std::printf("bulk_invalidate_l2_ns %.1f\n",
                    bulkInvalidateNs(3 * 1024 * 1024, 16, 20'000));
        return 0;
    }

    if (cell_only) {
        // Machine-greppable line for tools/perf_smoke.sh.
        std::printf("cell_ops_per_sec %.0f\n", measureCell().ops_per_sec);
        return 0;
    }

    using Wheel = hmg::Engine;
    const double wheel_small =
        eventsPerSec<Wheel, Pump<Wheel, 1>>(events);
    const double wheel_wide =
        eventsPerSec<Wheel, Pump<Wheel, 1>>(events, kWideChains);
    if (kernel_only) {
        // Machine-greppable lines for tools/perf_smoke.sh: throughput of
        // the wheel alone, no sweep/PDES runs, no JSON written.
        std::printf("wheel_events_per_sec %.0f\n", wheel_small);
        std::printf("wheel_wide_events_per_sec %.0f\n", wheel_wide);
        return 0;
    }
    const double seed_small =
        eventsPerSec<SeedPqEngine, Pump<SeedPqEngine, 1>>(events);
    const double wheel_fat =
        eventsPerSec<Wheel, Pump<Wheel, 88>>(events);
    const double seed_fat =
        eventsPerSec<SeedPqEngine, Pump<SeedPqEngine, 88>>(events);

    std::printf("event kernel, %llu events:\n",
                static_cast<unsigned long long>(events));
    std::printf("  small closures: wheel %10.0f ev/s | seed pq %10.0f "
                "ev/s | speedup %.2fx\n",
                wheel_small, seed_small, wheel_small / seed_small);
    std::printf("  ~112B closures: wheel %10.0f ev/s | seed pq %10.0f "
                "ev/s | speedup %.2fx\n",
                wheel_fat, seed_fat, wheel_fat / seed_fat);
    std::printf("  small closures, %llu live: wheel %10.0f ev/s\n",
                static_cast<unsigned long long>(kWideChains), wheel_wide);

    const SweepTiming sw = measureSweep(sweep_scale, jobs);
    std::printf("sweep, %zu cells at scale %.2f:\n", sw.cells, sweep_scale);
    std::printf("  serial %.2fs | --jobs %u %.2fs | speedup %.2fx | "
                "results bit-identical: %s\n",
                sw.serial_seconds, sw.jobs, sw.parallel_seconds,
                sw.serial_seconds / sw.parallel_seconds,
                sw.bit_identical ? "yes" : "NO");

    const PdesTiming pd = measurePdes("bfs", pdes_scale, 4);
    std::printf("pdes, %s at scale %.2f, %u LPs (host cores: %u):\n",
                pd.workload.c_str(), pd.scale, pd.lps,
                std::thread::hardware_concurrency());
    std::printf("  serial %.2fs | det-merge %.2fs (bit-identical: %s) | "
                "time-window %.2fs | speedup %.2fx\n",
                pd.serial_seconds, pd.det_seconds,
                pd.det_identical ? "yes" : "NO", pd.tw_seconds,
                pd.serial_seconds / pd.tw_seconds);
    std::printf("  %.0f windows | %.0f boundary msgs | %.0f null msgs | "
                "%.0f stall windows | lookahead util %.2f\n",
                pd.windows, pd.boundary_msgs, pd.null_msgs,
                pd.window_stalls, pd.lookahead_util);

    const auto sc = measureScaleout("bfs", scaleout_scale);
    std::printf("scale-out, bfs at scale %.2f:\n", scaleout_scale);
    for (const auto &pt : sc)
        std::printf("  %2ux8x2 (%3u GPUs, %3u GPMs): hmg %.2fs, "
                    "%llu cycles | sw-nonh %llu cycles | dir evict/"
                    "alloc %.0f/%.0f | util gpu %.3f node %.3f | "
                    "nhcc %s\n",
                    pt.nodes, pt.gpus, pt.gpms, pt.hmg_seconds,
                    static_cast<unsigned long long>(pt.hmg_cycles),
                    static_cast<unsigned long long>(pt.swnh_cycles),
                    pt.dir_evictions, pt.dir_allocations,
                    pt.inter_gpu_util, pt.inter_node_util,
                    pt.nhcc_trackable ? "trackable" : "mask overflow");

    const CellTiming cell = measureCell();
    std::printf("cell, %s under %s at scale %.2f: %.0f op/s (best of 3)\n",
                cell.workload, cell.protocol, cell.scale, cell.ops_per_sec);

    const Fig8Timing f8 = measureFig8();
    std::printf("fig8 suite, %zu cells at scale %.2f: 1 job %.2fs | "
                "%u jobs %.2fs (%.2f CPU-s)\n",
                f8.cells, f8.scale, f8.serial_seconds, f8.jobs,
                f8.parallel_seconds, f8.parallel_cpu_seconds);

    if (std::FILE *f = std::fopen(out_path.c_str(), "w")) {
        std::fprintf(f,
                     "{\n"
                     "  \"engine\": {\n"
                     "    \"host_cores\": %u,\n"
                     "    \"compiler\": \"%s\",\n"
                     "    \"build_type\": \"%s\",\n"
                     "    \"events\": %llu,\n"
                     "    \"wheel_events_per_sec\": %.0f,\n"
                     "    \"seed_pq_events_per_sec\": %.0f,\n"
                     "    \"speedup_vs_seed\": %.3f,\n"
                     "    \"wheel_fat_events_per_sec\": %.0f,\n"
                     "    \"seed_pq_fat_events_per_sec\": %.0f,\n"
                     "    \"fat_speedup_vs_seed\": %.3f,\n"
                     "    \"wide_live_events\": %llu,\n"
                     "    \"wheel_wide_events_per_sec\": %.0f\n"
                     "  },\n"
                     "  \"sweep\": {\n"
                     "    \"cells\": %zu,\n"
                     "    \"scale\": %.3f,\n"
                     "    \"jobs\": %u,\n"
                     "    \"serial_seconds\": %.3f,\n"
                     "    \"parallel_seconds\": %.3f,\n"
                     "    \"speedup\": %.3f,\n"
                     "    \"results_bit_identical\": %s\n"
                     "  },\n"
                     "  \"pdes\": {\n"
                     "    \"workload\": \"%s\",\n"
                     "    \"scale\": %.3f,\n"
                     "    \"lps\": %u,\n"
                     "    \"host_cores\": %u,\n"
                     "    \"serial_seconds\": %.3f,\n"
                     "    \"det_merge_seconds\": %.3f,\n"
                     "    \"det_merge_bit_identical\": %s,\n"
                     "    \"time_window_seconds\": %.3f,\n"
                     "    \"speedup\": %.3f,\n"
                     "    \"serial_cycles\": %llu,\n"
                     "    \"time_window_cycles\": %llu,\n"
                     "    \"windows\": %.0f,\n"
                     "    \"boundary_msgs\": %.0f,\n"
                     "    \"null_msgs\": %.0f,\n"
                     "    \"window_stalls\": %.0f,\n"
                     "    \"cross_lp_posts\": %.0f,\n"
                     "    \"lookahead_util\": %.3f\n"
                     "  },\n"
                     "  \"cell\": {\n"
                     "    \"host_cores\": %u,\n"
                     "    \"compiler\": \"%s\",\n"
                     "    \"build_type\": \"%s\",\n"
                     "    \"workload\": \"%s\",\n"
                     "    \"protocol\": \"%s\",\n"
                     "    \"scale\": %.3f,\n"
                     "    \"mem_ops\": %llu,\n"
                     "    \"ops_per_sec\": %.0f\n"
                     "  },\n"
                     "  \"fig8_suite\": {\n"
                     "    \"cells\": %zu,\n"
                     "    \"scale\": %.3f,\n"
                     "    \"serial_seconds\": %.3f,\n"
                     "    \"jobs\": %u,\n"
                     "    \"parallel_seconds\": %.3f,\n"
                     "    \"parallel_cpu_seconds\": %.3f\n"
                     "  },\n"
                     "  \"scaleout\": {\n"
                     "    \"workload\": \"bfs\",\n"
                     "    \"scale\": %.3f,\n"
                     "    \"points\": [\n",
                     std::thread::hardware_concurrency(),
                     HMG_BENCH_COMPILER, HMG_BENCH_BUILD_TYPE,
                     static_cast<unsigned long long>(events), wheel_small,
                     seed_small, wheel_small / seed_small, wheel_fat,
                     seed_fat, wheel_fat / seed_fat,
                     static_cast<unsigned long long>(kWideChains),
                     wheel_wide, sw.cells, sweep_scale,
                     sw.jobs, sw.serial_seconds, sw.parallel_seconds,
                     sw.serial_seconds / sw.parallel_seconds,
                     sw.bit_identical ? "true" : "false",
                     pd.workload.c_str(), pd.scale, pd.lps,
                     std::thread::hardware_concurrency(),
                     pd.serial_seconds, pd.det_seconds,
                     pd.det_identical ? "true" : "false", pd.tw_seconds,
                     pd.serial_seconds / pd.tw_seconds,
                     static_cast<unsigned long long>(pd.serial_cycles),
                     static_cast<unsigned long long>(pd.tw_cycles),
                     pd.windows, pd.boundary_msgs, pd.null_msgs,
                     pd.window_stalls, pd.cross_lp_posts,
                     pd.lookahead_util, std::thread::hardware_concurrency(),
                     HMG_BENCH_COMPILER, HMG_BENCH_BUILD_TYPE, cell.workload,
                     cell.protocol, cell.scale,
                     static_cast<unsigned long long>(cell.mem_ops),
                     cell.ops_per_sec, f8.cells, f8.scale,
                     f8.serial_seconds, f8.jobs, f8.parallel_seconds,
                     f8.parallel_cpu_seconds, scaleout_scale);
        for (std::size_t i = 0; i < sc.size(); ++i) {
            const auto &pt = sc[i];
            std::fprintf(
                f,
                "      { \"gpus\": %u, \"nodes\": %u, \"gpms\": %u,"
                " \"nhcc_trackable\": %s,"
                " \"hmg_seconds\": %.3f, \"hmg_cycles\": %llu,"
                " \"swnh_cycles\": %llu,"
                " \"dir_allocations\": %.0f, \"dir_evictions\": %.0f,"
                " \"inter_gpu_util\": %.4f,"
                " \"inter_node_util\": %.4f }%s\n",
                pt.gpus, pt.nodes, pt.gpms,
                pt.nhcc_trackable ? "true" : "false", pt.hmg_seconds,
                static_cast<unsigned long long>(pt.hmg_cycles),
                static_cast<unsigned long long>(pt.swnh_cycles),
                pt.dir_allocations, pt.dir_evictions,
                pt.inter_gpu_util, pt.inter_node_util,
                i + 1 < sc.size() ? "," : "");
        }
        std::fprintf(f, "    ]\n  }\n}\n");
        std::fclose(f);
        std::printf("wrote %s\n", out_path.c_str());
    } else {
        std::fprintf(stderr, "could not write %s\n", out_path.c_str());
        return 2;
    }

    // Parallel results diverging from serial is a correctness bug, not a
    // perf shortfall — fail loudly so bench_smoke catches it in CI. The
    // same rule covers the deterministic-merge PDES mode.
    return (sw.bit_identical && pd.det_identical) ? 0 : 1;
}
