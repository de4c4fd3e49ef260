/**
 * @file
 * Unit tests for the two-level outstanding-write ledger behind release
 * semantics, and for the DrainLedger each level is.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/config.hh"
#include "core/release_tracker.hh"
#include "sim/lp.hh"
#include "sim/pool.hh"

namespace hmg
{
namespace
{

/** A serial (single-LP) domain: posts are immediate, as before. */
LpDomain &
serialLps()
{
    static SystemConfig cfg;
    static LpDomain lps(cfg);
    return lps;
}

TEST(ReleaseTracker, ImmediateWhenIdle)
{
    ReleaseTracker t(serialLps(), 4);
    int fired = 0;
    t.waitGpuLevel(0, [&]() { ++fired; });
    t.waitSysLevel(0, [&]() { ++fired; });
    t.waitAllDrained([&]() { ++fired; });
    EXPECT_EQ(fired, 3);
}

TEST(ReleaseTracker, GpuLevelBeforeSysLevel)
{
    ReleaseTracker t(serialLps(), 4);
    t.issued(1);
    int gpu = 0, sys = 0;
    t.waitGpuLevel(1, [&]() { ++gpu; });
    t.waitSysLevel(1, [&]() { ++sys; });
    EXPECT_EQ(gpu, 0);
    t.reachedGpuLevel(1);
    EXPECT_EQ(gpu, 1);
    EXPECT_EQ(sys, 0);
    t.reachedSysLevel(1);
    EXPECT_EQ(sys, 1);
}

TEST(ReleaseTracker, CountsPerSm)
{
    ReleaseTracker t(serialLps(), 4);
    t.issued(0);
    t.issued(0);
    t.issued(2);
    EXPECT_EQ(t.pendingGpu(0), 2u);
    EXPECT_EQ(t.pendingSys(2), 1u);
    EXPECT_EQ(t.totalPendingSys(), 3u);

    int fired = 0;
    t.waitSysLevel(0, [&]() { ++fired; });
    t.reachedGpuLevel(0);
    t.reachedSysLevel(0);
    EXPECT_EQ(fired, 0); // one store still pending on SM 0
    t.reachedGpuLevel(0);
    t.reachedSysLevel(0);
    EXPECT_EQ(fired, 1);
}

TEST(ReleaseTracker, GlobalDrainWaitsForEverySm)
{
    ReleaseTracker t(serialLps(), 4);
    t.issued(0);
    t.issued(3);
    int fired = 0;
    t.waitAllDrained([&]() { ++fired; });
    t.reachedGpuLevel(0);
    t.reachedSysLevel(0);
    EXPECT_EQ(fired, 0);
    t.reachedGpuLevel(3);
    t.reachedSysLevel(3);
    EXPECT_EQ(fired, 1);
}

TEST(ReleaseTracker, MultipleWaitersAllFire)
{
    ReleaseTracker t(serialLps(), 2);
    t.issued(0);
    int fired = 0;
    for (int i = 0; i < 5; ++i)
        t.waitSysLevel(0, [&]() { ++fired; });
    t.reachedGpuLevel(0);
    t.reachedSysLevel(0);
    EXPECT_EQ(fired, 5);
}

TEST(ReleaseTracker, WaiterRegisteredInsideCallbackWaitsForNext)
{
    ReleaseTracker t(serialLps(), 2);
    t.issued(0);
    int outer = 0, inner = 0;
    t.waitSysLevel(0, [&]() {
        ++outer;
        // Issue another write from within the callback; a new waiter
        // must not fire until that one drains too.
        t.issued(0);
        t.waitSysLevel(0, [&]() { ++inner; });
    });
    t.reachedGpuLevel(0);
    t.reachedSysLevel(0);
    EXPECT_EQ(outer, 1);
    EXPECT_EQ(inner, 0);
    t.reachedGpuLevel(0);
    t.reachedSysLevel(0);
    EXPECT_EQ(inner, 1);
}

// The ledger behind each level (sim/pool.hh). Waiters run in arrival
// order when the count drains. While they run, a waiter that waits with
// nothing in flight runs at once; one that issues first (a marker round
// starting its next round at the same GPM) waits for the next drain.
TEST(DrainLedger, WaitersRunInArrivalOrderAndReissueWaitsForNextDrain)
{
    DrainLedger<ReleaseTracker::Callback> ledger;
    std::vector<int> order;
    ledger.issue();
    ledger.issue();
    ledger.wait([&]() {
        order.push_back(0);
        ledger.wait([&]() { order.push_back(1); });
    });
    ledger.wait([&]() {
        order.push_back(2);
        ledger.issue();
        ledger.wait([&]() { order.push_back(4); });
    });
    ledger.wait([&]() { order.push_back(3); });
    ledger.land();
    EXPECT_TRUE(order.empty());
    ledger.land();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(ledger.inFlight(), 1u);
    ledger.land();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(ledger.inFlight(), 0u);

    bool ran = false;
    ledger.wait([&]() { ran = true; });
    EXPECT_TRUE(ran);
}

TEST(ReleaseTrackerDeath, UnderflowPanics)
{
    ReleaseTracker t(serialLps(), 2);
    EXPECT_DEATH(t.reachedSysLevel(0), "assertion");
}

} // namespace
} // namespace hmg
