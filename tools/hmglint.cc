/**
 * @file
 * hmglint — static analyzer for the HMG repository.
 *
 * The static complement to hmgcheck: instead of exploring reachable
 * protocol states, hmglint proves structural properties of the things
 * the simulator is *built from*, in milliseconds and independent of
 * state-space size. Three analysis families (src/verify/lint/):
 *
 *   tables       spec-table structure: dead/unreachable rows, shadowed
 *                guards, coverage, emitted-message consumers, NHCC vs
 *                HMG divergence on the shared query space;
 *   cdg          Duato channel-dependency graph over the NoC credit
 *                pools x message classes; proves deadlock freedom or
 *                prints the minimal cycle;
 *   liveness     transient-state wait-for graph derived from the
 *                tables: static livelock freedom, plus the composed
 *                protocol-transport dependency graph proven acyclic
 *                per topology (the gate new protocol tables pass
 *                before hmgcheck's state explosion).
 *
 * Source-level rules need no family because types enforce them: the
 * simulator's only hash maps (common/flat_map.hh) cannot be iterated,
 * a ShardedMap shard is reachable only under its lock, and a stat key
 * written twice panics at run time (common/stats.hh).
 *
 *   hmglint                          # all families, human diagnostics
 *   hmglint --json                   # machine-readable findings
 *   hmglint --sarif                  # SARIF 2.1.0 log on stdout
 *   hmglint --cdg --topology f.json  # one family over a topology
 *   hmglint --seed-dead-row          # test hook: must report the row
 *   hmglint --seed-cdg-cycle         # test hook: must print the cycle
 *   hmglint --seed-livelock          # test hook: must print the
 *                                    # transient livelock cycle
 *
 * Exit status: 0 when no errors were found, 1 otherwise. With
 * LINT_WERROR=1 in the environment, warnings gate the exit status
 * too (the same escalation contract as tools/run_lint.sh).
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/cli.hh"
#include "common/log.hh"
#include "common/topology.hh"
#include "verify/lint/cdg.hh"
#include "verify/lint/lint.hh"
#include "verify/lint/liveness.hh"
#include "verify/lint/table_lint.hh"

namespace
{

using namespace hmg::verify;
using hmg::parseU64;

struct Options
{
    bool tables = false;
    bool cdg = false;
    bool liveness = false;
    std::string topology;
    std::uint32_t gpus = 2, gpms = 2, nodes = 1;
    bool json = false;
    bool sarif = false;
    bool quiet = false;
    bool seedDeadRow = false;
    bool seedCdgCycle = false;
    bool seedLivelock = false;
};

void
usage()
{
    std::printf(
        "hmglint — static analyzer for protocol tables, transport\n"
        "deadlock freedom and protocol liveness\n\n"
        "  --tables          spec-table structural analysis only\n"
        "  --cdg             channel-dependency deadlock check only\n"
        "  --liveness        transient-state liveness + composed\n"
        "                    protocol-transport deadlock proof only\n"
        "                    (default: all three families)\n"
        "  --topology FILE   build the CDG / composed proof over the\n"
        "                    machine shape of a topology JSON file;\n"
        "                    conflicts with --gpus/--gpms/--nodes\n"
        "  --gpus N          GPUs in the analyzed instance (default 2)\n"
        "  --gpms N          GPMs per GPU (default 2)\n"
        "  --nodes N         nodes; > 1 adds the uplink tier\n"
        "                    (default 1)\n"
        "  --json            machine-readable report on stdout\n"
        "  --sarif           SARIF 2.1.0 log on stdout\n"
        "  --quiet           findings only, no summary\n"
        "  --seed-dead-row   test hook: append a guard-shadowed row;\n"
        "                    the table analysis must report it\n"
        "  --seed-cdg-cycle  test hook: model a bounded blocking NIC\n"
        "                    queue; the CDG analysis must print the\n"
        "                    dependency cycle\n"
        "  --seed-livelock   test hook: mark the GPU-home re-fan row\n"
        "                    transient; the liveness analysis must\n"
        "                    print the livelock cycle and the composed\n"
        "                    proof must print the transport cycle\n");
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
    // A declarative --topology file owns the geometry knobs the
    // individual flags also set; mixing the two would silently shadow
    // one with the other, so it is rejected by name instead — the
    // same contract as tools/hmgsim.cc.
    std::string geometry_flag;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--tables")
            o.tables = true;
        else if (a == "--cdg")
            o.cdg = true;
        else if (a == "--liveness")
            o.liveness = true;
        else if (a == "--topology")
            o.topology = need(i);
        else if (a == "--gpus") {
            geometry_flag = a;
            o.gpus = static_cast<std::uint32_t>(
                parseU64("--gpus", need(i), 1, 1024));
        } else if (a == "--gpms") {
            geometry_flag = a;
            o.gpms = static_cast<std::uint32_t>(
                parseU64("--gpms", need(i), 1, 1024));
        } else if (a == "--nodes") {
            geometry_flag = a;
            o.nodes = static_cast<std::uint32_t>(
                parseU64("--nodes", need(i), 1, 1024));
        } else if (a == "--json")
            o.json = true;
        else if (a == "--sarif")
            o.sarif = true;
        else if (a == "--quiet")
            o.quiet = true;
        else if (a == "--seed-dead-row")
            o.seedDeadRow = true;
        else if (a == "--seed-cdg-cycle")
            o.seedCdgCycle = true;
        else if (a == "--seed-livelock")
            o.seedLivelock = true;
        else if (a == "--help" || a == "-h") {
            usage();
            std::exit(0);
        } else {
            usage();
            hmg_fatal("unknown option '%s'", a.c_str());
        }
    }
    if (!o.topology.empty() && !geometry_flag.empty())
        hmg_fatal("--topology conflicts with %s: the topology file "
                  "already declares that knob (edit the file, or "
                  "drop --topology and use the flags)",
                  geometry_flag.c_str());
    if (o.json && o.sarif)
        hmg_fatal("--json conflicts with --sarif: pick one output "
                  "format per run");
    // No family flag selects every family.
    if (!o.tables && !o.cdg && !o.liveness)
        o.tables = o.cdg = o.liveness = true;
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);

    const bool werror = [] {
        const char *we = std::getenv("LINT_WERROR");
        return we && std::strcmp(we, "1") == 0;
    }();

    // Geometry: a topology file owns the instance shape, otherwise
    // the (possibly flag-overridden) default small instance.
    std::uint32_t gpus = o.gpus, gpms = o.gpms, nodes = o.nodes;
    if (!o.topology.empty()) {
        const hmg::Topology t = hmg::Topology::loadFile(o.topology);
        gpus = t.totalGpus();
        gpms = t.gpmsPerGpu;
        nodes = t.nodes;
    }

    lint::LintReport report;
    if (o.tables) {
        lint::TableLintOptions topts;
        topts.seedDeadRow = o.seedDeadRow;
        lint::analyzeTables(topts, report);
    }
    if (o.cdg) {
        lint::CdgOptions copts;
        copts.numGpus = gpus;
        copts.gpmsPerGpu = gpms;
        copts.numNodes = nodes;
        copts.seedCdgCycle = o.seedCdgCycle;
        lint::analyzeCdg(copts, report);
    }
    if (o.liveness) {
        lint::LivenessOptions lopts;
        lopts.numGpus = gpus;
        lopts.gpmsPerGpu = gpms;
        lopts.numNodes = nodes;
        lopts.seedLivelock = o.seedLivelock;
        lint::analyzeLiveness(lopts, report);
    }

    const bool pass =
        report.clean() && (!werror || report.warnings() == 0);

    std::string out;
    if (o.json) {
        out = report.toJson() + "\n";
    } else if (o.sarif) {
        out = report.toSarif();
    } else {
        out = report.toText();
        if (!o.quiet) {
            for (const auto &[name, value] : report.stats())
                out += "# " + name + " " + std::to_string(value) + "\n";
            out += "hmglint: " + std::to_string(report.errors()) +
                   " error" + (report.errors() == 1 ? "" : "s") +
                   ", " + std::to_string(report.warnings()) +
                   " warning" + (report.warnings() == 1 ? "" : "s") +
                   " — " + (pass ? "PASS" : "FAIL") + "\n";
        }
    }

    std::fwrite(out.data(), 1, out.size(), stdout);
    return pass ? 0 : 1;
}
