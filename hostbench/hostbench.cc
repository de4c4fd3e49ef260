/**
 * @file
 * Host-speed benchmark driver for one (workload, seed) cell.
 *
 *   hostbench --workload W --seed N --seconds S [--mode timed|traced]
 *             [--scale X] [--dir-entries N] [--cells N] [--spans FILE]
 *             [--serial-cycles C --serial-ops-per-s R]
 *   hostbench --self-test-spans
 *
 * timed:  repeats cells until S seconds have passed (or N cells ran). A
 *         cell times trace generation + Simulator construction (set-up)
 *         several times, then Simulator::run on the last set-up. Reports
 *         each cell's set-up times, simulated trace ops per host second
 *         of run(), stats digest and host-speed probe time, plus the peak
 *         RSS after the first cell.
 * traced: alternates an untraced cell with a traced one (spans around
 *         each layer call, plus isolated per-layer replays) until S
 *         seconds have passed, reports the per-layer metrics and writes
 *         the spans to FILE.
 *
 * Either mode prints one JSON line holding the metrics, the stats digest
 * of every simulated cell and the checks that failed; run.py compares
 * the digest with the recorded one and formats the result.
 */

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gpu/simulator.hh"
#include "replay.hh"
#include "sim/watchdog.hh"
#include "spans.hh"
#include "trace/workloads.hh"

namespace hostbench
{
namespace
{

using hmg::Protocol;

/** One benchmark workload: a suite trace under one protocol. */
struct Workload
{
    const char *name;
    const char *trace;
    Protocol protocol;
    bool lp; //!< threaded time-window PDES (one LP per core, up to 4)
};

const Workload kWorkloads[] = {
    {"bfs-hmg", "bfs", Protocol::Hmg, false},
    {"mst-hmg", "mst", Protocol::Hmg, false},
    {"cusolver-swnh", "cusolver", Protocol::SwNonHier, false},
    {"bfs-hmg-lp", "bfs", Protocol::Hmg, true},
};

/** Trace scale of every workload: ~10^5 memory ops, under a second. */
constexpr double kScale = 1.0;

struct Options
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10;
    double scale = 0; //!< 0 = the workload's own
    std::string mode = "timed";
    std::uint32_t dirEntries = 0; //!< 0 = Table II default
    std::uint64_t cells = 0;      //!< timed: run exactly this many (0 = by time)
    /** Serial reference of a threaded-PDES workload (run.py measures it
     *  in its own process); 0 = none. */
    double serialCycles = 0;
    double serialOpsPerS = 0;
    std::string spansPath;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr, "hostbench: %s\n", msg);
    std::exit(2);
}

double
seconds(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::int64_t
rssBytes()
{
    long pages = 0, resident = 0;
    if (FILE *f = std::fopen("/proc/self/statm", "r")) {
        if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2)
            resident = 0;
        std::fclose(f);
    }
    return static_cast<std::int64_t>(resident) * sysconf(_SC_PAGESIZE);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
mb(std::int64_t bytes)
{
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

std::uint32_t
lpCount()
{
    const unsigned n = std::thread::hardware_concurrency();
    return std::clamp<std::uint32_t>(n, 1, 4);
}

hmg::SystemConfig
configOf(const Options &o, bool lp)
{
    hmg::SystemConfig cfg; // Table II 4x4 machine
    cfg.protocol = o.workload->protocol;
    if (o.dirEntries)
        cfg.dirEntriesPerGpm = o.dirEntries;
    if (lp)
        cfg.lpJobs = lpCount();
    return cfg;
}

/** FNV-1a over every (name, value bits) pair of the stats map. */
std::uint64_t
digest(const hmg::StatRecorder &stats)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const void *p, std::size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    };
    for (const auto &[name, value] : stats.all()) {
        mix(name.data(), name.size() + 1);
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        mix(&bits, sizeof bits);
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/** Tiny ordered JSON object writer (numbers, strings, nested raw). */
class Json
{
  public:
    Json &
    num(const std::string &k, double v)
    {
        char buf[64];
        if (std::isfinite(v))
            std::snprintf(buf, sizeof buf, "%.17g", v);
        else
            std::snprintf(buf, sizeof buf, "null");
        return raw(k, buf);
    }
    Json &
    str(const std::string &k, const std::string &v)
    {
        return raw(k, "\"" + v + "\"");
    }
    Json &
    raw(const std::string &k, const std::string &v)
    {
        body_ += (body_.empty() ? "" : ", ") + ("\"" + k + "\": ") + v;
        return *this;
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::string
hostRecord()
{
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    return Json()
        .num("nproc", std::thread::hardware_concurrency())
        .str("compiler", HOSTBENCH_COMPILER)
        .str("build_type", HOSTBENCH_BUILD_TYPE)
        .raw("optimized", optimized ? "true" : "false")
        .raw("ndebug", ndebug ? "true" : "false")
        .text();
}

/** Outcome of simulating one cell, with the checks applied to it. */
struct Cell
{
    std::uint64_t memOps = 0;
    hmg::SimResult result;
    std::string error; //!< empty when the cell passed its checks
};

/**
 * Threaded time-window PDES is not bit-reproducible: which LP wins a
 * cross-LP race (a first touch, say) varies from run to run, so its stats
 * cannot be held to a digest. Its cells are held to this bound on their
 * cycle error against the serial run of the same cell instead.
 */
constexpr double kLpCycleErrorBound = 0.10;

double
cycleError(double cycles, double serial_cycles)
{
    return std::fabs(cycles - serial_cycles) / serial_cycles;
}

/**
 * Check a finished cell: the SMs executed exactly the trace's memory
 * ops, the run did not degrade, and a threaded-PDES cell stays within
 * kLpCycleErrorBound of its serial reference.
 */
void
checkCell(Cell &c, double serial_cycles)
{
    const double sm_ops = c.result.stats.get("sm_total.ops");
    const double cycles = static_cast<double>(c.result.cycles);
    if (c.result.degraded)
        c.error = "degraded: " + c.result.degradedReason;
    else if (sm_ops != static_cast<double>(c.memOps))
        c.error = "sm.ops " + std::to_string(sm_ops) + " != trace.mem_ops " +
                  std::to_string(c.memOps);
    else if (serial_cycles > 0 &&
             cycleError(cycles, serial_cycles) > kLpCycleErrorBound)
        c.error = "cycles " + std::to_string(cycles) + " vs serial " +
                  std::to_string(serial_cycles) + ": error above bound";
}

/** Tallies cells and their digests across one benchmark process. */
struct Ledger
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    std::map<std::string, std::uint64_t> digests; //!< digest -> cells

    /** @return true when the cell counts as a passing sample. */
    bool
    add(const Cell &c)
    {
        ++attempted;
        if (!c.error.empty()) {
            ++failed;
            if (errors.size() < 8)
                errors.push_back(c.error);
            return false;
        }
        ++digests[hex(digest(c.result.stats))];
        return true;
    }

    std::string
    json() const
    {
        std::string d = "{", e = "[";
        for (const auto &[k, n] : digests)
            d += (d.size() > 1 ? ", \"" : "\"") + k +
                 "\": " + std::to_string(n);
        for (const auto &s : errors)
            e += (e.size() > 1 ? ", \"" : "\"") + s + "\"";
        return Json()
            .num("attempted", static_cast<double>(attempted))
            .num("failed", static_cast<double>(failed))
            .raw("digests", d + "}")
            .raw("errors", e + "]")
            .text();
    }
};

/** Run `sim` on `trace`, turning a hang into a failed cell. */
void
simulate(const Options &o, hmg::Simulator &sim,
         const hmg::trace::Trace &trace, Cell &c)
{
    c.memOps = trace.memOps();
    try {
        c.result = sim.run(trace);
        checkCell(c, o.serialCycles);
    } catch (const hmg::SimHang &h) {
        c.error = std::string("SimHang: ") + h.what();
    }
}

double
workloadScale(const Options &o)
{
    return o.scale > 0 ? o.scale : kScale;
}

void
printResult(const Options &o, const Ledger &ledger, const Json &metrics,
            const std::string &extra)
{
    Json out;
    out.str("workload", o.workload->name)
        .num("scale", workloadScale(o))
        .num("seed", static_cast<double>(o.seed))
        .num("lps", o.workload->lp ? lpCount() : 1)
        .num("dir_entries", o.dirEntries)
        .str("mode", o.mode)
        .raw("host", hostRecord())
        .raw("ledger", ledger.json())
        .raw("metrics", metrics.text());
    out.raw(o.mode == "timed" ? "samples" : "extra", extra);
    std::printf("%s\n", out.text().c_str());
}

// ---------------------------------------------------------------- timed

/** Set-ups timed per simulated cell in the timed mode. */
constexpr int kSetupsPerCell = 4;

/**
 * Host-speed probe: 10^5 inserts into a fresh std::unordered_map, then
 * first-touch writes to 16 MB of fresh pages. That is the allocation,
 * hashing and page-fault mix that dominates a cell. The probe never
 * changes with the simulator, so its time says how fast the host itself
 * runs at that moment; run.py scales a run's timings by it.
 */
double
probeSeconds()
{
    const std::int64_t t0 = nowNs();
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    std::uint64_t x = 3;
    for (std::uint64_t i = 0; i < 100000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        map[x >> 40] += i;
    }
    const std::size_t len = std::size_t{16} << 20;
    void *mem = mmap(nullptr, len, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED)
        usage("probe: mmap failed");
    auto *bytes = static_cast<volatile char *>(mem);
    for (std::size_t off = 0; off < len; off += 4096)
        bytes[off] = static_cast<char>(map.size());
    munmap(mem, len);
    return seconds(nowNs() - t0);
}

std::string
numList(const std::vector<double> &v)
{
    std::string s = "[";
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", v[i]);
        s += buf;
    }
    return s + "]";
}

int
runTimed(const Options &o)
{
    const hmg::SystemConfig cfg = configOf(o, o.workload->lp);
    const double scale = workloadScale(o);
    Ledger ledger;
    std::string samples;
    double peak_rss_mb = 0;

    const std::int64_t start = nowNs();
    const auto budget = static_cast<std::int64_t>(o.seconds * 1e9);
    auto more = [&] {
        if (o.cells)
            return ledger.attempted < o.cells;
        return ledger.attempted < 3 || nowNs() - start < budget;
    };
    while (more()) {
        // Set-up is short and noisy, so each cell sets up several times
        // and simulates on the last set-up; every set-up is a sample.
        std::vector<double> setups;
        std::unique_ptr<hmg::trace::Trace> trace;
        std::unique_ptr<hmg::Simulator> sim;
        for (int i = 0; i < kSetupsPerCell; ++i) {
            sim.reset();
            trace.reset();
            const std::int64_t t0 = nowNs();
            trace = std::make_unique<hmg::trace::Trace>(
                hmg::trace::workloads::make(o.workload->trace, scale,
                                            o.seed));
            sim = std::make_unique<hmg::Simulator>(cfg);
            setups.push_back(seconds(nowNs() - t0));
        }
        Cell c;
        const std::int64_t t1 = nowNs();
        simulate(o, *sim, *trace, c);
        const std::int64_t t2 = nowNs();
        // The peak a one-cell run (the usual way to run a cell) reaches;
        // later cells only add allocator drift.
        if (ledger.attempted == 0)
            peak_rss_mb = peakRssMb();
        const double probe_s = probeSeconds();
        if (ledger.add(c))
            samples += std::string(samples.empty() ? "" : ", ") +
                       Json()
                           .raw("setup_s", numList(setups))
                           .num("ops_per_s", static_cast<double>(c.memOps) /
                                                 seconds(t2 - t1))
                           .num("probe_s", probe_s)
                           .num("cycles", static_cast<double>(c.result.cycles))
                           .str("digest", hex(digest(c.result.stats)))
                           .text();
    }

    Json m;
    m.num("peak_rss_mb", peak_rss_mb);
    printResult(o, ledger, m, "[" + samples + "]");
    return 0;
}

// --------------------------------------------------------------- traced

/** Per-pass phase timings of one cell. */
struct Phases
{
    std::int64_t make = 0, build = 0, run = 0, report = 0;
    std::int64_t wall() const { return make + build + run + report; }
};

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

/** Sum of every stat whose name starts with `prefix` and ends `suffix`. */
double
sumMatching(const hmg::StatRecorder &s, const std::string &prefix,
            const std::string &suffix)
{
    double v = 0;
    for (const auto &[k, x] : s.all())
        if (k.starts_with(prefix) && k.ends_with(suffix))
            v += x;
    return v;
}

int
runTraced(const Options &o)
{
    const hmg::SystemConfig cfg = configOf(o, o.workload->lp);
    const double scale = workloadScale(o);
    Tracer tracer;
    Ledger ledger;

    std::vector<double> untraced_wall, traced_wall;
    std::vector<double> gen_s, build_s, run_s, report_s;
    std::vector<double> r_engine, r_noc, r_cache, r_dir, r_mem;
    Cell last;
    std::int64_t trace_rss = -1, build_rss = 0, run_rss = 0;
    std::uint64_t footprint = 0;
    std::uint64_t replay_checksum = 0;

    auto cell = [&](bool traced, Phases &p) {
        const std::uint64_t root =
            traced ? tracer.begin("cell " + std::string(o.workload->name))
                   : 0;
        auto span = [&](const char *name) {
            return traced ? tracer.begin(name, root) : 0;
        };
        auto close = [&](std::uint64_t id) {
            if (traced)
                tracer.end(id);
        };
        const bool first = traced && trace_rss < 0;
        Cell c;

        std::int64_t rss0 = rssBytes();
        std::int64_t t = nowNs();
        std::uint64_t id = span("trace.make");
        auto trace = std::make_unique<hmg::trace::Trace>(
            hmg::trace::workloads::make(o.workload->trace, scale, o.seed));
        close(id);
        p.make = nowNs() - t;
        std::int64_t rss1 = rssBytes();

        t = nowNs();
        id = span("system.build");
        auto sim = std::make_unique<hmg::Simulator>(cfg);
        close(id);
        p.build = nowNs() - t;
        std::int64_t rss2 = rssBytes();

        t = nowNs();
        id = span("sim.run");
        simulate(o, *sim, *trace, c);
        close(id);
        p.run = nowNs() - t;
        std::int64_t rss3 = rssBytes();

        t = nowNs();
        id = span("stats.report");
        hmg::StatRecorder report;
        sim->system().reportStats(report);
        close(id);
        p.report = nowNs() - t;

        if (first) {
            trace_rss = rss1 - rss0;
            build_rss = rss2 - rss1;
            run_rss = rss3 - rss2;
            footprint = trace->footprintBytes(cfg.cacheLineBytes);
        }
        if (traced) {
            const FlatTrace flat = flatten(*trace, cfg);
            auto replay = [&](const char *name, auto &&fn,
                              std::vector<double> &out) {
                const std::uint64_t rid = span(name);
                const ReplayResult r = fn();
                close(rid);
                out.push_back(r.nsPerUnit());
                replay_checksum += r.checksum;
            };
            replay("replay.engine", [&] { return replayEngine(flat); },
                   r_engine);
            replay("replay.noc", [&] { return replayNoc(flat, cfg); },
                   r_noc);
            replay("replay.cache", [&] { return replayCache(flat, cfg); },
                   r_cache);
            replay("replay.dir",
                   [&] { return replayDirectory(flat, cfg); }, r_dir);
            replay("replay.mem", [&] { return replayMem(flat, cfg); }, r_mem);
            tracer.end(root);
        }
        if (ledger.add(c))
            last = std::move(c);
    };

    const std::int64_t start = nowNs();
    const auto budget = static_cast<std::int64_t>(o.seconds * 1e9);
    for (int pass = 0; pass < 1 || nowNs() - start < budget; ++pass) {
        // Alternate which variant runs first so neither always inherits
        // a warm allocator from the other.
        Phases pt, pu;
        if (pass % 2 == 0) {
            cell(true, pt);
            cell(false, pu);
        } else {
            cell(false, pu);
            cell(true, pt);
        }
        traced_wall.push_back(seconds(pt.wall()));
        untraced_wall.push_back(seconds(pu.wall()));
        gen_s.push_back(seconds(pt.make));
        build_s.push_back(seconds(pt.build));
        run_s.push_back(seconds(pt.run));
        report_s.push_back(seconds(pt.report));
    }

    const hmg::StatRecorder &s = last.result.stats;
    const double ops = static_cast<double>(last.memOps);
    const double events = s.get("engine.events");
    const double delivered = s.get("noc.delivered");
    const double run_med = median(run_s);
    const bool lp = o.workload->lp;
    Json m;
    m.num("trace.gen_s", median(gen_s))
        .num("trace.mem_ops", ops)
        .num("trace.footprint_mb", mb(static_cast<std::int64_t>(footprint)))
        .num("trace.rss_mb", mb(trace_rss))
        .num("system.build_s", median(build_s))
        .num("system.build_rss_mb", mb(build_rss))
        .num("sim.run_s", run_med)
        .num("sim.cycles", static_cast<double>(last.result.cycles))
        .num("sim.run_rss_mb", mb(run_rss))
        .num("sim.rss_bytes_per_op", ratio(static_cast<double>(run_rss), ops))
        .num("sm.ops", s.get("sm_total.ops"))
        .num("sm.atomics", s.get("sm_total.atomics"))
        .num("sm.sb_forwards", s.get("sm_total.sb_forwards"))
        .num("engine.events", events)
        .num("engine.events_per_op", ratio(events, ops))
        .num("engine.host_ns_per_event", ratio(run_med * 1e9, events))
        .num("engine.replay_ns_per_event", median(r_engine))
        .num("noc.delivered", delivered)
        .num("noc.events_per_msg", ratio(events, delivered))
        .num("noc.host_ns_per_msg", ratio(run_med * 1e9, delivered))
        .num("noc.qdelay_cycles_per_msg",
             ratio(sumMatching(s, "noc.port.", ".qdelay_cycles"), delivered))
        .num("noc.inter_gpu.util_avg", s.get("noc.inter_gpu.util_avg"))
        .num("noc.inter_gpu.util_peak", s.get("noc.inter_gpu.util_peak"))
        .num("noc.inter_mb", s.get("noc.total_inter_bytes") / (1024.0 * 1024.0))
        .num("noc.replay_ns_per_msg", median(r_noc))
        .num("l1.loads", s.get("sm_total.l1.loads"))
        .num("l1.hit_ratio",
             ratio(s.get("sm_total.l1.load_hits"), s.get("sm_total.l1.loads")))
        .num("l2.loads", s.get("total.l2.loads"))
        .num("l2.hit_ratio",
             ratio(s.get("total.l2.load_hits"), s.get("total.l2.loads")))
        .num("l2.bulk_invalidations", s.get("total.l2.bulk_invalidations"))
        .num("l2.invalidated_lines", s.get("total.l2.invalidated_lines"))
        .num("cache.replay_ns_per_access", median(r_cache))
        .num("dir.lookups", s.get("total.dir.lookups"))
        .num("dir.hit_ratio",
             ratio(s.get("total.dir.hits"), s.get("total.dir.lookups")))
        .num("dir.allocations", s.get("total.dir.allocations"))
        .num("dir.evictions", s.get("total.dir.evictions"))
        .num("protocol.inv_msgs", s.get("protocol.inv_msgs"))
        .num("protocol.store_inv_lines", s.get("protocol.store_inv_lines"))
        .num("protocol.loads_local_hit", s.get("protocol.loads_local_hit"))
        .num("protocol.loads_gpu_home_hit",
             s.get("protocol.loads_gpu_home_hit"))
        .num("protocol.loads_sys_home_hit",
             s.get("protocol.loads_sys_home_hit"))
        .num("protocol.loads_dram", s.get("protocol.loads_dram"))
        .num("mshr.merges", s.get("total.mshr_merges"))
        .num("dir.replay_ns_per_op", median(r_dir))
        .num("dram.reads", s.get("total.dram.reads"))
        .num("dram.writes", s.get("total.dram.writes"))
        .num("mem.replay_ns_per_op", median(r_mem))
        .num("lp.windows", s.get("pdes.windows"))
        .num("lp.null_msgs", s.get("pdes.null_msgs"))
        .num("lp.stall_windows", s.get("pdes.lp_stall_windows"))
        .num("lp.boundary_msgs", s.get("pdes.boundary_msgs"))
        .num("lp.cross_lp_posts", s.get("pdes.cross_lp_posts"))
        .num("lp.lookahead_util", s.get("pdes.lookahead_util"))
        .num("lp.speedup_vs_serial",
             lp ? ratio(ops / run_med, o.serialOpsPerS) : 1.0)
        .num("lp.cycle_error_pct",
             lp ? 100.0 * cycleError(static_cast<double>(last.result.cycles),
                                     o.serialCycles)
                : 0.0)
        .num("stats.report_s", median(report_s))
        .num("stats.keys", static_cast<double>(s.all().size()))
        .num("trace_overhead_pct",
             100.0 * (median(traced_wall) - median(untraced_wall)) /
                 median(untraced_wall));

    if (!o.spansPath.empty()) {
        std::ofstream out(o.spansPath);
        out << tracer.toJson();
        if (!out)
            usage(("cannot write " + o.spansPath).c_str());
    }
    const std::string extra =
        Json()
            .num("passes", static_cast<double>(run_s.size()))
            .num("spans", static_cast<double>(tracer.spans().size()))
            .str("replay_checksum", hex(replay_checksum))
            .text();
    printResult(o, ledger, m, extra);
    return 0;
}

Options
parse(int argc, char **argv)
{
    Options o;
    auto value = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usage((std::string(argv[i]) + " needs a value").c_str());
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--workload") {
            const std::string w = value(i);
            for (const Workload &k : kWorkloads)
                if (w == k.name)
                    o.workload = &k;
            if (!o.workload)
                usage(("unknown workload " + w).c_str());
        } else if (a == "--seed") {
            o.seed = std::stoull(value(i));
        } else if (a == "--seconds") {
            o.seconds = std::stod(value(i));
        } else if (a == "--scale") {
            o.scale = std::stod(value(i));
        } else if (a == "--mode") {
            o.mode = value(i);
            if (o.mode != "timed" && o.mode != "traced")
                usage("--mode wants timed or traced");
        } else if (a == "--dir-entries") {
            o.dirEntries = static_cast<std::uint32_t>(std::stoul(value(i)));
        } else if (a == "--cells") {
            o.cells = std::stoull(value(i));
        } else if (a == "--serial-cycles") {
            o.serialCycles = std::stod(value(i));
        } else if (a == "--serial-ops-per-s") {
            o.serialOpsPerS = std::stod(value(i));
        } else if (a == "--spans") {
            o.spansPath = value(i);
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!o.workload)
        usage("--workload is required");
    return o;
}

} // namespace
} // namespace hostbench

int
main(int argc, char **argv)
{
    using namespace hostbench;
    if (argc == 2 && std::strcmp(argv[1], "--self-test-spans") == 0) {
        const int bad = selfTestSpans();
        std::printf("span self-test: %s\n", bad ? "FAILED" : "ok");
        return bad ? 1 : 0;
    }
    const Options o = parse(argc, argv);
    return o.mode == "traced" ? runTraced(o) : runTimed(o);
}
