/**
 * @file
 * Fault-injection and watchdog tests (DESIGN.md §11).
 *
 * Three families:
 *
 *  1. differential — the fault layer is always compiled in, so an
 *     *inactive* FaultConfig must be perfectly invisible: serial,
 *     deterministic-merge and SweepRunner runs produce bit-identical
 *     full statistic maps with zero `noc.fault.*` keys. An *active*
 *     plan must still be deterministic: serial and deterministic-merge
 *     replay the identical fault history bit for bit.
 *
 *  2. recovery — under heavy transient loss the retry sublayer keeps
 *     the protocol engines oblivious: the MP litmus completes under
 *     the runtime coherence checker with retransmits accounted.
 *
 *  3. watchdog — a permanent link failure turns a silent hang into a
 *     SimHang carrying a structured diagnostic, and a SweepRunner
 *     isolates the wedged cell as degraded instead of dying.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "gpu/simulator.hh"
#include "sim/sweep.hh"
#include "sim/watchdog.hh"
#include "trace/workloads.hh"

namespace hmg
{
namespace
{

constexpr Addr kData = 0x000000; // page 0
constexpr Addr kFlag = 0x200000; // page 1
constexpr Addr kPriv = 0x800000; // per-GPM private pages

SystemConfig
faultConfig()
{
    SystemConfig cfg; // Table II defaults: 4 GPUs x 4 GPMs
    cfg.checkCoherence = true;
    return cfg;
}

/** The message-passing litmus shape of tests/pdes_test.cc: writer
 *  stores DATA, releases at `scope`, stores FLAG; reader acquire-loads
 *  FLAG then reloads DATA; every other GPM pins itself on a private
 *  page so CTA placement is exact. */
trace::Trace
mpTrace(const SystemConfig &cfg, GpmId writer, GpmId reader, Scope scope,
        GpmId data_home, GpmId flag_home)
{
    const std::uint32_t n = cfg.totalGpms();
    auto priv = [](GpmId g) { return kPriv + Addr{g} * 0x200000; };

    trace::Trace t;
    t.name = "mp_fault";
    for (int k = 0; k < 3; ++k) {
        trace::Kernel kern;
        kern.name = "k" + std::to_string(k);
        for (GpmId g = 0; g < n; ++g) {
            trace::Warp w;
            if (k == 0) {
                w.ld(priv(g));
                if (g == data_home)
                    w.ld(kData, /*delay=*/4);
                if (g == flag_home)
                    w.ld(kFlag, /*delay=*/8);
            } else if (k == 1) {
                if (g == reader)
                    w.ld(kData);
                else
                    w.ld(priv(g));
            } else {
                if (g == writer) {
                    w.st(kData);
                    w.relFence(scope, /*delay=*/2);
                    w.st(kFlag, /*delay=*/2);
                } else if (g == reader) {
                    w.ld(kFlag, /*delay=*/4000, scope,
                         /*acquire=*/true);
                    w.ld(kData, /*delay=*/2);
                } else {
                    w.ld(priv(g));
                }
            }
            trace::Cta cta;
            cta.warps.push_back(std::move(w));
            kern.ctas.push_back(std::move(cta));
        }
        t.kernels.push_back(std::move(kern));
    }
    return t;
}

SimResult
runMode(const SystemConfig &base, const trace::Trace &t,
        std::uint32_t lp_jobs, bool deterministic)
{
    SystemConfig cfg = base;
    cfg.lpJobs = lp_jobs;
    cfg.lpDeterministic = deterministic;
    Simulator sim(cfg);
    return sim.run(t);
}

void
expectSameStats(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    const auto &sa = a.stats.all();
    const auto &sb = b.stats.all();
    ASSERT_EQ(sa.size(), sb.size());
    auto ib = sb.begin();
    for (const auto &[k, v] : sa) {
        EXPECT_EQ(k, ib->first);
        EXPECT_EQ(v, ib->second) << "stat '" << k << "' diverged";
        ++ib;
    }
}

// ----------------------------------------------------- differential

TEST(FaultDifferential, InactivePlanIsInvisible)
{
    SystemConfig cfg = faultConfig();
    cfg.protocol = Protocol::Hmg;
    const auto t = mpTrace(cfg, 0, 4, Scope::Sys, 12, 5);

    const SimResult serial = runMode(cfg, t, 1, false);
    const SimResult det = runMode(cfg, t, 4, true);
    expectSameStats(serial, det);

    // An inactive FaultConfig must add zero stat keys: the seed
    // baselines (BENCH_engine.json, figure scripts) stay bit-identical.
    for (const auto &[k, v] : serial.stats.all())
        EXPECT_EQ(k.find("noc.fault"), std::string::npos)
            << "unexpected fault stat '" << k << "' on inactive plan";
}

TEST(FaultDifferential, InactivePlanWorkloadAndSweepAgree)
{
    SystemConfig cfg = faultConfig();
    cfg.protocol = Protocol::Hmg;
    const auto t = trace::workloads::make("bfs", 0.05);

    const SimResult serial = runMode(cfg, t, 1, false);
    const SimResult det = runMode(cfg, t, 4, true);
    expectSameStats(serial, det);

    // The same cell twice through the sweep pool: both land identical
    // to the direct run (nothing shared, nothing degraded).
    SweepCell cell{"bfs", cfg, 0.05, 1};
    SweepRunner runner(2);
    const auto results = runner.run({cell, cell});
    ASSERT_EQ(results.size(), 2u);
    for (const auto &r : results) {
        EXPECT_FALSE(r.degraded);
        expectSameStats(serial, r);
    }
}

TEST(FaultDifferential, ActivePlanSerialVsDetMergeBitIdentical)
{
    SystemConfig cfg = faultConfig();
    cfg.protocol = Protocol::Hmg;
    cfg.fault.seed = 9;
    cfg.fault.dropProb = 0.01;
    cfg.fault.delayProb = 0.01;
    const auto t = mpTrace(cfg, 0, 4, Scope::Sys, 12, 5);

    // Same total event order => same per-link RNG draw sequence => the
    // fault history itself is deterministic across engine modes.
    const SimResult serial = runMode(cfg, t, 1, false);
    const SimResult det = runMode(cfg, t, 4, true);
    expectSameStats(serial, det);
    EXPECT_GT(serial.stats.get("noc.fault.total.attempts"), 0.0);
}

TEST(FaultDifferential, SameSeedSameHistoryDifferentSeedDiverges)
{
    SystemConfig cfg = faultConfig();
    cfg.protocol = Protocol::Nhcc;
    cfg.fault.seed = 5;
    cfg.fault.dropProb = 0.05;
    const auto t = mpTrace(cfg, 0, 8, Scope::Sys, 0, 6);

    const SimResult a = runMode(cfg, t, 1, false);
    const SimResult b = runMode(cfg, t, 1, false);
    expectSameStats(a, b);

    SystemConfig other = cfg;
    other.fault.seed = 6;
    const SimResult c = runMode(other, t, 1, false);
    // Different seed, different fault history. Compare the loss count
    // rather than cycles: cycle counts could coincide.
    EXPECT_TRUE(a.stats.get("noc.fault.total.drops") !=
                    c.stats.get("noc.fault.total.drops") ||
                a.cycles != c.cycles);
}

// --------------------------------------------------------- recovery

TEST(FaultRecovery, HeavyLossCompletesUnderChecker)
{
    SystemConfig cfg = faultConfig();
    cfg.protocol = Protocol::Hmg;
    cfg.fault.seed = 3;
    cfg.fault.dropProb = 0.15;
    cfg.fault.corruptProb = 0.05;
    const auto t = mpTrace(cfg, 0, 4, Scope::Sys, 12, 5);

    // One in five transmissions fails, yet the protocol engines never
    // notice: the run completes (no SimHang from the auto-armed
    // watchdog), the coherence checker stays quiet, and the sublayer
    // accounts every retransmission.
    const SimResult res = runMode(cfg, t, 1, false);
    EXPECT_GT(res.cycles, 0u);
    EXPECT_GT(res.stats.get("noc.fault.total.retransmits"), 0.0);
    EXPECT_GT(res.stats.get("noc.fault.total.recoveries"), 0.0);
    EXPECT_GE(res.stats.get("noc.fault.total.retransmits"),
              res.stats.get("noc.fault.total.drops"));
}

TEST(FaultRecovery, TransientFlapRecovers)
{
    SystemConfig cfg = faultConfig();
    cfg.protocol = Protocol::Hmg;
    cfg.fault.flaps.push_back(
        LinkFlap{/*gpu=*/1, /*egress=*/true, /*downAt=*/2000,
                 /*upAt=*/6000});
    const auto t = mpTrace(cfg, 0, 4, Scope::Sys, 12, 5);

    const SimResult res = runMode(cfg, t, 1, false);
    EXPECT_GT(res.cycles, 0u);
    EXPECT_GT(res.stats.get("noc.fault.total.flap_drops"), 0.0);
    EXPECT_GT(res.stats.get("noc.fault.total.recovery_episodes"), 0.0);
}

// Intra-GPU links report per link next to the inter-GPU ones, and the
// `.total` aggregate is the per-link sum of every counter (the maxima:
// the maximum over links).
TEST(FaultRecovery, IntraGpuLinksReportPerLinkAndTotal)
{
    SystemConfig cfg = faultConfig();
    cfg.protocol = Protocol::Hmg;
    cfg.fault.seed = 4;
    cfg.fault.dropProb = 0.05;
    cfg.fault.intraGpu = true;
    const auto t = mpTrace(cfg, 0, 4, Scope::Sys, 12, 5);
    const SimResult res = runMode(cfg, t, 1, false);

    std::vector<std::string> links;
    for (const char *dir : {".egress", ".ingress"}) {
        for (GpuId u = 0; u < cfg.numGpus; ++u)
            links.push_back("noc.fault.gpu" + std::to_string(u) + dir);
        for (GpmId g = 0; g < cfg.totalGpms(); ++g)
            links.push_back("noc.fault.gpm" + std::to_string(g) + dir);
    }
    for (const char *counter :
         {".attempts", ".drops", ".retransmits", ".recovery_episodes",
          ".recovery_cycles_total"}) {
        double sum = 0;
        for (const std::string &l : links)
            sum += res.stats.get(l + counter);
        EXPECT_EQ(res.stats.get(std::string("noc.fault.total") + counter),
                  sum)
            << counter;
    }
    double max_losses = 0;
    for (const std::string &l : links)
        max_losses = std::max(
            max_losses, res.stats.get(l + ".max_consecutive_losses"));
    EXPECT_EQ(res.stats.get("noc.fault.total.max_consecutive_losses"),
              max_losses);
    EXPECT_GT(res.stats.get("noc.fault.gpm0.egress.attempts"), 0.0);
    EXPECT_GT(res.stats.get("noc.fault.total.drops"), 0.0);
}

// --------------------------------------------------------- watchdog

SystemConfig
wedgedConfig()
{
    SystemConfig cfg = faultConfig();
    cfg.protocol = Protocol::Hmg;
    // GPU1's egress link dies at tick 1000 and never comes back; the
    // small threshold keeps the test fast.
    cfg.fault.flaps.push_back(
        LinkFlap{/*gpu=*/1, /*egress=*/true, /*downAt=*/1000,
                 /*upAt=*/0});
    cfg.watchdogCycles = 50000;
    return cfg;
}

TEST(Watchdog, PermanentLinkFailureTripsWithDiagnostic)
{
    const SystemConfig cfg = wedgedConfig();
    const auto t = mpTrace(cfg, 0, 4, Scope::Sys, 12, 5);
    try {
        Simulator sim(cfg);
        (void)sim.run(t);
        FAIL() << "expected SimHang";
    } catch (const SimHang &h) {
        EXPECT_NE(std::string(h.what()).find("no progress"),
                  std::string::npos)
            << h.what();
        const std::string &d = h.diagnostic();
        ASSERT_FALSE(d.empty());
        EXPECT_NE(d.find("watchdog"), std::string::npos) << d;
        EXPECT_NE(d.find("DOWN"), std::string::npos) << d;
        EXPECT_NE(d.find("port"), std::string::npos) << d;
    }
}

TEST(Watchdog, DeterministicMergeTripsToo)
{
    SystemConfig cfg = wedgedConfig();
    cfg.lpJobs = 4;
    cfg.lpDeterministic = true;
    const auto t = mpTrace(cfg, 0, 4, Scope::Sys, 12, 5);
    Simulator sim(cfg);
    EXPECT_THROW((void)sim.run(t), SimHang);
}

TEST(Watchdog, TimeWindowTripsAndShutsWorkersDown)
{
    SystemConfig cfg = wedgedConfig();
    cfg.lpJobs = 4;
    const auto t = mpTrace(cfg, 0, 4, Scope::Sys, 12, 5);
    Simulator sim(cfg);
    // The throw must unwind cleanly (workers joined) — ASan/TSan legs
    // would flag a leaked or racing worker thread here.
    EXPECT_THROW((void)sim.run(t), SimHang);
}

TEST(Watchdog, SweepIsolatesWedgedCellAsDegraded)
{
    SystemConfig good = faultConfig();
    good.protocol = Protocol::Hmg;

    SweepCell ok_cell{"bfs", good, 0.05, 1};
    SweepCell bad_cell{"bfs", wedgedConfig(), 0.05, 1};

    SweepRunner runner(2);
    const auto results = runner.run({ok_cell, bad_cell, ok_cell});
    ASSERT_EQ(results.size(), 3u);

    EXPECT_FALSE(results[0].degraded);
    EXPECT_GT(results[0].cycles, 0u);
    EXPECT_FALSE(results[2].degraded);
    expectSameStats(results[0], results[2]);

    // The wedged cell hung twice (retried once), then was reported
    // degraded with the watchdog diagnostic — the sweep survived.
    EXPECT_TRUE(results[1].degraded);
    EXPECT_NE(results[1].degradedReason.find("no progress"),
              std::string::npos)
        << results[1].degradedReason;
    EXPECT_FALSE(results[1].diagnostic.empty());
}

} // namespace
} // namespace hmg
