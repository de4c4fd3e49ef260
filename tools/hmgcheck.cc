/**
 * @file
 * hmgcheck — the verifier for the NHCC / HMG coherence tables.
 *
 * Runs three stages over the declarative transition tables the timing
 * simulator itself dispatches through (src/verify/):
 *
 *   static   structural proofs over any machine shape, in milliseconds
 *            and independent of state-space size: one report from three
 *            families (src/verify/lint/)
 *              table     every row is ack-free and transient-free (the
 *                        paper's Sections IV-B / V-C claims),
 *                        deterministic and complete; no row is dead or
 *                        unreachable; every emitted message has a
 *                        consumer; NHCC and HMG agree where both answer;
 *              cdg       the message-class dependency graph and the
 *                        channel-dependency graph over the NoC credit
 *                        pools are acyclic (deadlock freedom);
 *              liveness  no table row stalls in a transient state, and
 *                        the composed protocol-transport graph is
 *                        acyclic;
 *   retry    exhaustive check of the link-level retry sublayer: delivery
 *            liveness and exactly-once in-order delivery;
 *   explore  breadth-first search over every reachable state of a small
 *            machine, checking sharer-tracking soundness, scoped-RC
 *            litmus outcomes (MP / SB / WRC) and dynamic deadlock
 *            freedom.
 *
 * retry and explore follow the static stage unless --static is given.
 * Exploration models two shapes: 2 GPUs x 2 GPMs x 1 node, and 4 GPUs x
 * 2 GPMs x 2 nodes, whose home chain has a live node tier.
 *
 * Each --seed-* flag plants one defect, and its stage passes only when
 * it reports a defect. The mis-scoped litmus variant (mp_gpu_cross)
 * likewise must FAIL, demonstrating the checker can detect real scope
 * bugs. Exit status: 0 when every stage passes, 1 otherwise.
 *
 *   hmgcheck --protocol hmg
 *   hmgcheck --topology examples/topologies/two_node_2x2x2.json
 *   hmgcheck --protocol nhcc --workload mp_sys --trace
 *   hmgcheck --protocol hmg --seed-bad-row      (counterexample demo)
 *   hmgcheck --static --topology examples/topologies/scaleout_8x8x4.json
 *   hmgcheck --static --sarif                   (SARIF 2.1.0 on stdout)
 *   hmgcheck --static --seed-cdg-cycle          (prints the cycle)
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/config.hh"
#include "common/log.hh"
#include "common/topology.hh"
#include "verify/lint/cdg.hh"
#include "verify/lint/lint.hh"
#include "verify/lint/liveness.hh"
#include "verify/lint/table_lint.hh"
#include "verify/model.hh"
#include "verify/retry_model.hh"

namespace
{

using namespace hmg;

struct Options
{
    bool staticOnly = false;
    /** The machine and the static families' seeds. */
    verify::lint::LintOptions lint;
    bool json = false;
    bool sarif = false;
    bool quiet = false;
    // Read only by the retry and explore stages.
    bool hier = true;
    std::optional<verify::Workload> workload; //!< nullopt = all
    std::uint32_t dirCap = 1;
    std::uint32_t retryLosses = 3;
    bool showTrace = false;
    bool seedBadRow = false;
    bool seedRetryBug = false;
};

void
usage()
{
    std::printf(
        "hmgcheck — static analysis and exhaustive model checking of the\n"
        "coherence tables. Stages: static (table, cdg, liveness), then\n"
        "retry and explore unless --static is given.\n\n"
        "  --static          run the static stage only\n"
        "  --topology FILE   machine shape from a topology JSON file;\n"
        "                    conflicts with --gpus/--gpms/--nodes\n"
        "  --gpus N          total GPUs (default 2)\n"
        "  --gpms N          GPMs per GPU (default 2)\n"
        "  --nodes N         nodes; > 1 adds the node tier (default 1).\n"
        "                    explore models 2x2x1 and 4 GPUs x 2 GPMs x\n"
        "                    2 nodes; --static takes any buildable shape\n"
        "  --json            static report as JSON (with --static)\n"
        "  --sarif           static report as SARIF 2.1.0 (with --static)\n"
        "  --quiet           findings, failures and the verdict only\n"
        "  --seed-dead-row   test hook: append a guard-shadowed row; the\n"
        "                    table family must report it\n"
        "  --seed-cdg-cycle  test hook: model a bounded blocking NIC\n"
        "                    queue; the cdg family must print the cycle\n"
        "  --seed-livelock   test hook: mark the GPU-home re-fan row\n"
        "                    transient; the liveness family must print\n"
        "                    the livelock and the composed cycle\n\n"
        "Read only by retry and explore, so fatal with --static:\n"
        "  --protocol P      nhcc|hmg (default hmg; the 2-node shape\n"
        "                    requires hmg)\n"
        "  --workload W      free|mp_sys|mp_gpu|mp_gpu_cross|sb_sys|\n"
        "                    wrc_sys|all (default all)\n"
        "  --dir-cap N       directory entries per model node, 1..%u\n"
        "                    (default 1, which forces replacement fans;\n"
        "                    %u entries hold every model line)\n"
        "  --retry-losses N  loss budget of the retry check, 0..%u\n"
        "                    (default 3)\n"
        "  --trace           print the counterexample trace of failures\n"
        "  --seed-bad-row    test hook: corrupt the home store row; the\n"
        "                    explorer must emit a counterexample\n"
        "  --seed-retry-bug  test hook: remove the retry sublayer's\n"
        "                    in-order filter; the retry check must find\n"
        "                    a duplicate delivery\n",
        verify::kMaxLines, verify::kMaxLines, verify::kMaxLossBudget);
}

verify::Workload
parseWorkload(const std::string &s)
{
    using W = verify::Workload;
    for (W w : {W::Free, W::MpSys, W::MpGpu, W::MpGpuCross, W::SbSys,
                W::WrcSys})
        if (s == toString(w))
            return w;
    hmg_fatal("unknown workload '%s' (free|mp_sys|mp_gpu|mp_gpu_cross|"
              "sb_sys|wrc_sys|all)",
              s.c_str());
}

std::string
shapeName(const SystemConfig &s)
{
    auto count = [](std::uint32_t n, const char *unit) {
        return std::to_string(n) + " " + unit + (n == 1 ? "" : "s");
    };
    return count(s.numGpus, "GPU") + " x " + count(s.gpmsPerGpu, "GPM") +
           " x " + count(s.numNodes, "node");
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
    auto number = [&](int &i, std::uint64_t lo, std::uint64_t hi) {
        const char *flag = argv[i];
        return static_cast<std::uint32_t>(parseU64(flag, need(i), lo, hi));
    };
    // A topology file owns the geometry the flags also set; mixing the
    // two is rejected by flag name, the same contract as tools/hmgsim.cc.
    // A flag only retry and explore read is rejected under --static, so
    // a seed is never silently skipped.
    SystemConfig &shape = o.lint.cfg;
    std::string topology;
    const char *geometryFlag = nullptr;
    const char *exploreFlag = nullptr;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--gpus" || a == "--gpms" || a == "--nodes")
            geometryFlag = argv[i];
        if (a == "--protocol" || a == "--workload" || a == "--dir-cap" ||
            a == "--retry-losses" || a == "--trace" ||
            a == "--seed-bad-row" || a == "--seed-retry-bug")
            exploreFlag = argv[i];

        if (a == "--static")
            o.staticOnly = true;
        else if (a == "--topology")
            topology = need(i);
        else if (a == "--gpus")
            shape.numGpus = number(i, 1, 1024);
        else if (a == "--gpms")
            shape.gpmsPerGpu = number(i, 1, 1024);
        else if (a == "--nodes")
            shape.numNodes = number(i, 1, 1024);
        else if (a == "--json")
            o.json = true;
        else if (a == "--sarif")
            o.sarif = true;
        else if (a == "--quiet")
            o.quiet = true;
        else if (a == "--seed-dead-row")
            o.lint.seedDeadRow = true;
        else if (a == "--seed-cdg-cycle")
            o.lint.seedCdgCycle = true;
        else if (a == "--seed-livelock")
            o.lint.seedLivelock = true;
        else if (a == "--protocol") {
            const std::string p = need(i);
            if (p == "hmg")
                o.hier = true;
            else if (p == "nhcc")
                o.hier = false;
            else
                hmg_fatal("unknown protocol '%s' (nhcc|hmg)", p.c_str());
        } else if (a == "--workload") {
            const std::string w = need(i);
            if (w != "all")
                o.workload = parseWorkload(w);
        } else if (a == "--dir-cap")
            o.dirCap = number(i, 1, verify::kMaxLines);
        else if (a == "--retry-losses")
            o.retryLosses = number(i, 0, verify::kMaxLossBudget);
        else if (a == "--trace")
            o.showTrace = true;
        else if (a == "--seed-bad-row")
            o.seedBadRow = true;
        else if (a == "--seed-retry-bug")
            o.seedRetryBug = true;
        else if (a == "--help" || a == "-h") {
            usage();
            std::exit(0);
        } else {
            usage();
            hmg_fatal("unknown option '%s'", a.c_str());
        }
    }

    // The shape must be one the simulator can build: the same walls
    // (divisibility, 32-bit sharer masks) as hmgsim's.
    if (!topology.empty()) {
        if (geometryFlag)
            hmg_fatal("--topology conflicts with %s: the topology file "
                      "already declares that knob (edit the file, or "
                      "drop --topology and use the flags)",
                      geometryFlag);
        Topology::loadFile(topology).applyTo(shape);
    } else {
        shape.validate();
    }

    if (o.json && o.sarif)
        hmg_fatal("--json conflicts with --sarif: pick one output "
                  "format per run");
    if ((o.json || o.sarif) && !o.staticOnly)
        hmg_fatal("%s requires --static: the retry and explore stages "
                  "print text",
                  o.json ? "--json" : "--sarif");
    if (o.staticOnly) {
        if (exploreFlag)
            hmg_fatal("%s conflicts with --static: only the retry and "
                      "explore stages read it",
                      exploreFlag);
        return o;
    }
    const SystemConfig &l = o.lint.cfg;
    const bool threeLevel =
        l.numGpus == 4 && l.gpmsPerGpu == 2 && l.numNodes == 2;
    if (!threeLevel &&
        !(l.numGpus == 2 && l.gpmsPerGpu == 2 && l.numNodes == 1))
        hmg_fatal("exploration models 2 GPUs x 2 GPMs x 1 node or 4 GPUs "
                  "x 2 GPMs x 2 nodes, got %s (add --static to run the "
                  "static stage alone)",
                  shapeName(l).c_str());
    if (threeLevel && !o.hier)
        hmg_fatal("the 2-node shape requires --protocol hmg: the flat "
                  "NHCC protocol has no node-home tier to exercise");
    return o;
}

/** A stage's verdict: a seeded stage passes only when its check fails. */
const char *
verdict(bool ok, bool expectFail, const char *holds)
{
    if (!ok)
        return expectFail ? "violation found as expected" : "FAILED";
    return expectFail ? "FAILED (no violation found)" : holds;
}

/**
 * Print one exhaustive stage's line, and its violation when there is
 * one. @return whether the stage passed.
 */
bool
printExhaustive(const Options &o, const char *stage, const std::string &name,
                const verify::MckResult &res, bool expectFail,
                const char *holds)
{
    const bool pass = expectFail ? !res.ok : res.ok;
    if (o.quiet && pass)
        return pass;
    std::printf("%-8s%-14s%8llu states %9llu transitions %6llu final: %s\n",
                stage, name.c_str(),
                static_cast<unsigned long long>(res.statesExplored),
                static_cast<unsigned long long>(res.transitionsTaken),
                static_cast<unsigned long long>(res.finalStates),
                verdict(res.ok, expectFail, holds));
    if (!res.ok) {
        std::printf("  violation: %s\n", res.violation.c_str());
        if (o.showTrace || !pass) {
            std::printf("  counterexample (%zu steps):\n", res.trace.size());
            for (std::size_t i = 0; i < res.trace.size(); ++i)
                std::printf("    %2zu. %s\n", i + 1, res.trace[i].c_str());
        }
    }
    return pass;
}

/** The static stage: one report from the three lint families. */
bool
runStatic(const Options &o)
{
    verify::lint::LintReport report;
    verify::lint::analyzeTables(o.lint, report);
    verify::lint::analyzeCdg(o.lint, report);
    verify::lint::analyzeLiveness(o.lint, report);
    const bool expectFail =
        o.lint.seedDeadRow || o.lint.seedCdgCycle || o.lint.seedLivelock;
    const bool pass = expectFail ? !report.clean() : report.clean();

    if (o.json || o.sarif) {
        const std::string out = o.json ? report.toJson() : report.toSarif();
        std::fwrite(out.data(), 1, out.size(), stdout);
        return pass;
    }
    std::fputs(report.toText().c_str(), stdout);
    if (!o.quiet)
        for (const auto &[name, value] : report.stats())
            std::printf("static  %-24s %llu\n", name.c_str(),
                        static_cast<unsigned long long>(value));
    if (!o.quiet || !pass) {
        const std::size_t n = report.findings().size();
        std::printf("static  table cdg liveness  %zu finding%s over %s: "
                    "%s\n",
                    n, n == 1 ? "" : "s", shapeName(o.lint.cfg).c_str(),
                    verdict(report.clean(), expectFail,
                            "all invariants hold"));
    }
    return pass;
}

/** Run one exhaustive exploration (invariant families 2-4). */
bool
runWorkload(const Options &o, verify::Workload w)
{
    verify::MckConfig cfg;
    cfg.hier = o.hier;
    cfg.numNodes = o.lint.cfg.numNodes;
    cfg.numGpus = o.lint.cfg.numGpus;
    cfg.gpmsPerGpu = o.lint.cfg.gpmsPerGpu;
    cfg.dirEntriesPerNode = o.dirCap;
    cfg.workload = w;
    cfg.seedBadRow = o.seedBadRow;
    // The mis-scoped litmus must be caught, not survived.
    const bool expectFail =
        (w == verify::Workload::MpGpuCross && cfg.hier) || o.seedBadRow;

    return printExhaustive(o, "explore", toString(w),
                           verify::exploreProtocol(cfg), expectFail,
                           "all invariants hold");
}

/**
 * Model-check the link-level retry sublayer (loss + retransmit
 * nondeterminism) for delivery liveness and no-duplicate-delivery
 * before the engines trust "faults cost time, never messages".
 */
bool
runRetry(const Options &o)
{
    verify::RetryMckConfig cfg;
    cfg.lossBudget = o.retryLosses;
    cfg.seedAcceptAnySeq = o.seedRetryBug;
    const bool expectFail = o.seedRetryBug;

    return printExhaustive(o, "retry",
                           "go-back-" + std::to_string(cfg.window),
                           verify::exploreRetry(cfg), expectFail,
                           "delivery liveness + exactly-once in-order "
                           "delivery hold");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);

    if (!o.quiet && !o.staticOnly)
        std::printf("hmgcheck: protocol %s, %s home chain, %s directory "
                    "entr%s per node\n",
                    o.hier ? "hmg" : "nhcc",
                    o.lint.cfg.numNodes > 1 ? "three-level (2x2x2)"
                                        : "two-level",
                    o.dirCap == 1 ? "one" : "N",
                    o.dirCap == 1 ? "y" : "ies");

    bool ok = runStatic(o);
    if (!o.staticOnly) {
        ok = runRetry(o) && ok;
        using W = verify::Workload;
        std::vector<W> runs;
        if (o.workload) {
            runs = {*o.workload};
        } else {
            runs = {W::Free, W::MpSys, W::MpGpu, W::SbSys, W::WrcSys};
            // The scope-bug demonstration needs GPU-level fences to be
            // weaker than system ones, which only the hierarchical
            // protocol models.
            if (o.hier && !o.seedBadRow)
                runs.push_back(W::MpGpuCross);
        }
        for (W w : runs)
            ok = runWorkload(o, w) && ok;
    }

    if (!o.json && !o.sarif)
        std::printf("hmgcheck: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
}
