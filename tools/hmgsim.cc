/**
 * @file
 * hmgsim — command-line front-end to the simulator.
 *
 * Run any Table III workload (or every one) under any coherence
 * configuration, overriding the main Table II knobs, and dump either a
 * human-readable summary or the complete statistics set (optionally as
 * CSV for scripting). `--workload all` fans the runs out over a
 * SweepRunner thread pool (`--jobs N`, default every core); output is
 * buffered per workload and printed in suite order, so it is identical
 * for any job count.
 *
 *   hmgsim --workload lstm --protocol hmg
 *   hmgsim --workload all --protocol swnh --scale 0.5 --jobs 8
 *   hmgsim --workload mst --protocol hmg --dir-entries 6144 --stats
 *   hmgsim --workload bfs --protocol nhcc --csv > bfs.csv
 *   hmgsim --workload bfs --save-trace bfs.hmgtrace
 *   hmgsim --workload bfs --trace bfs.hmgtrace --csv
 */

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/log.hh"
#include "common/topology.hh"
#include "gpu/simulator.hh"
#include "sim/sweep.hh"
#include "sim/watchdog.hh"
#include "trace/io.hh"
#include "trace/profiler.hh"
#include "trace/workloads.hh"

namespace
{

using hmg::parseF64;
using hmg::parseU64;

struct Options
{
    std::string workload = "lstm";
    std::string protocol = "hmg";
    double scale = 1.0;
    std::uint64_t seed = 1;
    unsigned jobs = 0;
    bool full_stats = false;
    bool csv = false;
    bool locality = false;
    std::string save_trace;
    std::string load_trace;
    hmg::SystemConfig cfg;
};

/** Parse a `--fault-flap GPU:DIR:DOWN:UP` schedule entry. */
hmg::LinkFlap
parseFlap(const char *s)
{
    std::string str(s);
    std::vector<std::string> parts;
    std::size_t pos = 0;
    for (std::size_t colon;
         (colon = str.find(':', pos)) != std::string::npos;
         pos = colon + 1)
        parts.push_back(str.substr(pos, colon - pos));
    parts.push_back(str.substr(pos));
    if (parts.size() != 4)
        hmg_fatal("--fault-flap wants GPU:DIR:DOWN:UP, got '%s'", s);
    hmg::LinkFlap f;
    f.gpu = static_cast<hmg::GpuId>(
        parseU64("--fault-flap GPU", parts[0].c_str(), 0, UINT32_MAX));
    if (parts[1] == "egress")
        f.egress = true;
    else if (parts[1] == "ingress")
        f.egress = false;
    else
        hmg_fatal("--fault-flap DIR wants egress|ingress, got '%s'",
                  parts[1].c_str());
    f.downAt = parseU64("--fault-flap DOWN", parts[2].c_str());
    f.upAt = parseU64("--fault-flap UP", parts[3].c_str());
    return f;
}

hmg::Protocol
parseProtocol(const std::string &s)
{
    if (s == "baseline" || s == "none")
        return hmg::Protocol::NoRemoteCache;
    if (s == "swnh" || s == "sw")
        return hmg::Protocol::SwNonHier;
    if (s == "swh")
        return hmg::Protocol::SwHier;
    if (s == "nhcc")
        return hmg::Protocol::Nhcc;
    if (s == "hmg")
        return hmg::Protocol::Hmg;
    if (s == "ideal")
        return hmg::Protocol::Ideal;
    hmg_fatal("unknown protocol '%s' (baseline|swnh|swh|nhcc|hmg|ideal)",
              s.c_str());
}

void
usage()
{
    std::printf(
        "hmgsim — hierarchical multi-GPU coherence simulator\n\n"
        "  --workload NAME|all     Table III workload key (default lstm)\n"
        "  --protocol P            baseline|swnh|swh|nhcc|hmg|ideal\n"
        "  --scale X               workload iteration scale (default 1.0)\n"
        "  --seed N                trace RNG seed\n"
        "  --trace FILE            simulate an hmgtrace file instead of\n"
        "                          generating the workload's trace\n"
        "  --save-trace FILE       write the trace to FILE in hmgtrace\n"
        "                          format and exit without simulating\n"
        "  --jobs N                parallel runs for --workload all\n"
        "                          (default: all cores, or HMG_JOBS)\n"
        "  --lp-jobs N             partition ONE simulation into N\n"
        "                          logical processes (at most one per\n"
        "                          GPU, per node when multi-node)\n"
        "                          synchronized by conservative time\n"
        "                          windows over the cut tier's lookahead\n"
        "  --deterministic         with --lp-jobs: single-threaded\n"
        "                          (tick, insertion-order) merge that is\n"
        "                          bit-identical to the serial engine\n"
        "  --topology FILE         load a declarative machine shape\n"
        "                          (JSON: tiers, per-tier link rates and\n"
        "                          latencies, memories); conflicts with\n"
        "                          the individual geometry flags below\n"
        "  --nodes N --gpus N      topology overrides (--gpus is the\n"
        "  --gpms N                machine total; --nodes must divide it)\n"
        "  --l2-mb N               L2 capacity per GPU (MB)\n"
        "  --dir-entries N         directory entries per GPM\n"
        "  --dir-lines N           cache lines per directory entry\n"
        "  --inter-bw GBPS         inter-GPU link bandwidth\n"
        "  --placement P           first-touch|round-robin\n"
        "  --hier-release          hierarchical release marker fan-out\n"
        "  --downgrade             clean-eviction sharer downgrades\n"
        "  --check                 run the runtime coherence checker\n"
        "  --locality              also run the Fig. 3 locality analysis\n"
        "  --stats                 dump every statistic\n"
        "  --csv                   machine-readable stat dump\n"
        "\nfault injection (DESIGN.md §11; all deterministic under "
        "--fault-seed):\n"
        "  --fault-seed N          fault RNG seed (default 1)\n"
        "  --fault-drop P          per-transmission drop probability\n"
        "  --fault-corrupt P       per-transmission corrupt probability\n"
        "                          (CRC-detected, dropped + counted)\n"
        "  --fault-delay P         per-transmission extra-delay prob.\n"
        "  --fault-delay-cycles N  extra latency of a delay fault\n"
        "                          (default 200)\n"
        "  --fault-flap G:DIR:D:U  take GPU G's DIR (egress|ingress)\n"
        "                          inter-GPU link down over cycles\n"
        "                          [D, U); U=0 means forever.\n"
        "                          Repeatable.\n"
        "  --fault-intra           also inject on intra-GPU GPM links\n"
        "  --fault-timeout N       link retry timeout before replay\n"
        "                          (default 64 cycles, exp. backoff)\n"
        "  --watchdog N            hang watchdog no-progress threshold\n"
        "                          in cycles (default: 2M when faults\n"
        "                          are active, otherwise off)\n");
}

Options
parse(int argc, char **argv)
{
    Options o;
    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            hmg_fatal("missing value for %s", argv[i]);
        return argv[++i];
    };
    // A declarative --topology file owns every knob the individual
    // geometry flags also set; mixing the two would silently shadow
    // one with the other, so it is rejected by name instead.
    std::string topology_path;
    std::string geometry_flag;
    auto geom = [&](const std::string &flag) { geometry_flag = flag; };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--workload")
            o.workload = need(i);
        else if (a == "--protocol")
            o.protocol = need(i);
        else if (a == "--scale") {
            o.scale = parseF64("--scale", need(i), 0.0, 1e6);
            if (o.scale <= 0.0)
                hmg_fatal("--scale wants a positive factor");
        } else if (a == "--seed")
            o.seed = parseU64("--seed", need(i));
        else if (a == "--jobs")
            o.jobs = static_cast<unsigned>(
                parseU64("--jobs", need(i), 1, 4096));
        else if (a == "--lp-jobs")
            o.cfg.lpJobs = static_cast<std::uint32_t>(
                parseU64("--lp-jobs", need(i), 1, 4096));
        else if (a == "--deterministic")
            o.cfg.lpDeterministic = true;
        else if (a == "--topology")
            topology_path = need(i);
        else if (a == "--nodes") {
            o.cfg.numNodes = static_cast<std::uint32_t>(
                parseU64("--nodes", need(i), 1, 1024));
            geom(a);
        } else if (a == "--gpus") {
            o.cfg.numGpus = static_cast<std::uint32_t>(
                parseU64("--gpus", need(i), 1, 1024));
            geom(a);
        } else if (a == "--gpms") {
            o.cfg.gpmsPerGpu = static_cast<std::uint32_t>(
                parseU64("--gpms", need(i), 1, 1024));
            geom(a);
        } else if (a == "--l2-mb") {
            o.cfg.l2BytesPerGpu =
                parseU64("--l2-mb", need(i), 1, 1 << 20) * 1024 * 1024;
            geom(a);
        } else if (a == "--dir-entries") {
            o.cfg.dirEntriesPerGpm = static_cast<std::uint32_t>(
                parseU64("--dir-entries", need(i), 1, UINT32_MAX));
            geom(a);
        } else if (a == "--dir-lines")
            o.cfg.dirLinesPerEntry = static_cast<std::uint32_t>(
                parseU64("--dir-lines", need(i), 1, UINT32_MAX));
        else if (a == "--inter-bw") {
            o.cfg.interGpuGBpsPerLink =
                parseF64("--inter-bw", need(i), 0.0, hmg::kMaxRateGBps);
            if (o.cfg.interGpuGBpsPerLink <= 0.0)
                hmg_fatal("--inter-bw wants a positive bandwidth");
            geom(a);
        } else if (a == "--placement") {
            const std::string p = need(i);
            if (p == "first-touch")
                o.cfg.pagePlacement = hmg::PagePlacement::FirstTouch;
            else if (p == "round-robin")
                o.cfg.pagePlacement = hmg::PagePlacement::RoundRobin;
            else
                hmg_fatal("unknown placement '%s' "
                          "(first-touch|round-robin)",
                          p.c_str());
        } else if (a == "--fault-seed")
            o.cfg.fault.seed = parseU64("--fault-seed", need(i));
        else if (a == "--fault-drop")
            o.cfg.fault.dropProb =
                parseF64("--fault-drop", need(i), 0.0, 1.0);
        else if (a == "--fault-corrupt")
            o.cfg.fault.corruptProb =
                parseF64("--fault-corrupt", need(i), 0.0, 1.0);
        else if (a == "--fault-delay")
            o.cfg.fault.delayProb =
                parseF64("--fault-delay", need(i), 0.0, 1.0);
        else if (a == "--fault-delay-cycles")
            o.cfg.fault.delayCycles =
                parseU64("--fault-delay-cycles", need(i), 1, UINT64_MAX);
        else if (a == "--fault-flap")
            o.cfg.fault.flaps.push_back(parseFlap(need(i)));
        else if (a == "--fault-intra")
            o.cfg.fault.intraGpu = true;
        else if (a == "--fault-timeout")
            o.cfg.fault.retryTimeout =
                parseU64("--fault-timeout", need(i), 1, UINT64_MAX);
        else if (a == "--watchdog")
            o.cfg.watchdogCycles =
                parseU64("--watchdog", need(i), 1, UINT64_MAX);
        else if (a == "--hier-release")
            o.cfg.hierarchicalReleaseFanout = true;
        else if (a == "--downgrade")
            o.cfg.sharerDowngrade = true;
        else if (a == "--check")
            o.cfg.checkCoherence = true;
        else if (a == "--save-trace")
            o.save_trace = need(i);
        else if (a == "--trace")
            o.load_trace = need(i);
        else if (a == "--locality")
            o.locality = true;
        else if (a == "--stats")
            o.full_stats = true;
        else if (a == "--csv")
            o.csv = true;
        else if (a == "--help" || a == "-h") {
            usage();
            std::exit(0);
        } else {
            usage();
            hmg_fatal("unknown option '%s'", a.c_str());
        }
    }
    if (!topology_path.empty()) {
        if (!geometry_flag.empty())
            hmg_fatal("--topology conflicts with %s: the topology file "
                      "already declares that knob (edit the file, or "
                      "drop --topology and use the flags)",
                      geometry_flag.c_str());
        hmg::Topology::loadFile(topology_path).applyTo(o.cfg);
    }
    o.cfg.protocol = parseProtocol(o.protocol);
    return o;
}

void
appendf(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

void
appendf(std::string &out, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::vector<char> buf(static_cast<std::size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    out.append(buf.data(), static_cast<std::size_t>(n));
}

/** Run one workload and return its complete console output. */
std::string
runOne(const Options &o, const std::string &name)
{
    std::string out;
    auto trace = o.load_trace.empty()
                     ? hmg::trace::workloads::make(name, o.scale, o.seed)
                     : hmg::trace::loadFile(o.load_trace);
    const std::string &shown = o.load_trace.empty() ? name : trace.name;
    if (!o.save_trace.empty()) {
        hmg::trace::saveFile(trace, o.save_trace);
        appendf(out, "wrote %llu ops to %s\n",
                static_cast<unsigned long long>(trace.memOps()),
                o.save_trace.c_str());
        return out;
    }
    hmg::Simulator sim(o.cfg);
    auto res = sim.run(trace);

    if (o.csv) {
        appendf(out, "workload,protocol,stat,value\n");
        appendf(out, "%s,%s,cycles,%llu\n", name.c_str(),
                toString(o.cfg.protocol),
                static_cast<unsigned long long>(res.cycles));
        for (const auto &[k, v] : res.stats.all())
            appendf(out, "%s,%s,%s,%.0f\n", name.c_str(),
                    toString(o.cfg.protocol), k.c_str(), v);
        return out;
    }

    appendf(out, "%-12s %-14s %10llu cycles  %8.2f MB interGPU  "
            "%7.0f DRAM reads  %7.0f inv msgs\n",
            shown.c_str(), toString(o.cfg.protocol),
            static_cast<unsigned long long>(res.cycles),
            res.stats.get("noc.total_inter_bytes") / 1e6,
            res.stats.get("total.dram.reads"),
            res.stats.get("protocol.inv_msgs"));

    if (o.locality) {
        auto loc = hmg::trace::analyzeInterGpuLocality(trace, o.cfg);
        appendf(out, "  locality: %llu inter-GPU loads, %.1f%% shared "
                "within a GPU (Fig. 3 metric)\n",
                static_cast<unsigned long long>(loc.interGpuLoads),
                loc.sharedPct());
    }
    if (o.full_stats)
        out += res.stats.toString();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parse(argc, argv);
    o.cfg.validate();
    // Reject an unknown workload before any simulation (or sweep
    // fan-out) starts; workloads::info() is fatal on unknown names.
    if (o.workload != "all" && o.load_trace.empty())
        hmg::trace::workloads::info(o.workload);

    if (o.workload == "all") {
        const auto &infos = hmg::trace::workloads::list();
        std::vector<std::string> outputs(infos.size());
        std::vector<std::string> hung(infos.size());
        // --save-trace writes one file per run to the same path; keep
        // that serial so the behaviour stays what it always was.
        hmg::SweepRunner runner(o.save_trace.empty() ? o.jobs : 1);
        runner.forEach(infos.size(), [&](std::size_t i) {
            // A hung cell is isolated: report it degraded with its
            // watchdog diagnostic and let the rest of the sweep finish.
            try {
                outputs[i] = runOne(o, infos[i].name);
            } catch (const hmg::SimHang &h) {
                outputs[i] = infos[i].name + ": DEGRADED — " + h.what() +
                             "\n";
                hung[i] = h.diagnostic();
            }
        });
        bool any_hung = false;
        for (const auto &s : outputs)
            std::fputs(s.c_str(), stdout);
        for (std::size_t i = 0; i < infos.size(); ++i) {
            if (hung[i].empty())
                continue;
            any_hung = true;
            std::fprintf(stderr, "--- %s diagnostic ---\n%s",
                         infos[i].name.c_str(), hung[i].c_str());
        }
        return any_hung ? 3 : 0;
    }
    try {
        std::fputs(runOne(o, o.workload).c_str(), stdout);
    } catch (const hmg::SimHang &h) {
        std::fprintf(stderr, "hmgsim: %s\n%s", h.what(),
                     h.diagnostic().c_str());
        return 3;
    }
    return 0;
}
