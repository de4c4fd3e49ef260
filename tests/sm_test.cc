/**
 * @file
 * SM front-end tests: warp execution order, L1 behaviour (hit/miss,
 * scoped-load bypass, acquire invalidation), store-buffer forwarding,
 * MSHR throttling, parked warps and the warp-context pool — driven
 * through the real scheduler with hand-built single-kernel traces.
 */

#include <gtest/gtest.h>

#include "gpu/simulator.hh"
#include "test_system.hh"
#include "trace/trace.hh"

namespace hmg
{
namespace
{

using trace::Cta;
using trace::Kernel;
using trace::Trace;
using trace::Warp;

Trace
oneCtaTrace(Warp warp)
{
    Trace t;
    t.name = "test";
    Kernel k;
    k.name = "k";
    Cta cta;
    cta.warps.push_back(std::move(warp));
    k.ctas.push_back(std::move(cta));
    t.kernels.push_back(std::move(k));
    return t;
}

SimResult
runTrace(Protocol p, const Trace &t)
{
    Simulator sim(testing::smallConfig(p));
    return sim.run(t);
}

TEST(Sm, ExecutesAllOps)
{
    Warp w;
    for (int i = 0; i < 20; ++i)
        w.ld(i * 128, 2);
    for (int i = 0; i < 10; ++i)
        w.st(i * 128, 2);
    auto res = runTrace(Protocol::Hmg, oneCtaTrace(std::move(w)));
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.ops"), 30);
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.loads"), 20);
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.stores"), 10);
    EXPECT_GT(res.cycles, 0u);
}

TEST(Sm, L1CapturesReuse)
{
    // Loads are posted (non-blocking), so a draining .cta fence between
    // repetitions guarantees the fills have landed before the re-reads.
    Warp w;
    for (int rep = 0; rep < 8; ++rep) {
        for (int i = 0; i < 4; ++i)
            w.ld(i * 128, 1);
        w.acqFence(Scope::Cta, 1);
    }
    auto res = runTrace(Protocol::Hmg, oneCtaTrace(std::move(w)));
    // 4 cold misses, 28 L1 hits.
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.l1.loads"), 32);
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.l1.load_hits"), 28);
}

TEST(Sm, ScopedLoadsMissTheL1)
{
    Warp w;
    w.ld(0, 1);                // cold miss, fills L1
    w.acqFence(Scope::Cta, 1); // drain so the fill lands
    w.ld(0, 1);                // L1 hit
    w.ld(0, 1, Scope::Gpu);    // must bypass the L1
    w.ld(0, 1, Scope::Sys);    // must bypass the L1
    auto res = runTrace(Protocol::Hmg, oneCtaTrace(std::move(w)));
    // Only the None-scoped loads consult the L1.
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.l1.loads"), 2);
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.l1.load_hits"), 1);
}

TEST(Sm, StoreBufferForwardsOwnWrite)
{
    // A load immediately after the warp's own store must see it even
    // though the write-through is still in flight.
    Warp w;
    w.ld(0, 1);  // seed the line
    w.st(0, 1);
    w.ld(0, 0);  // zero delay: the write-through cannot have finished
    auto res = runTrace(Protocol::Hmg, oneCtaTrace(std::move(w)));
    EXPECT_GE(res.stats.get("sm_total.sb_forwards") +
                  res.stats.get("sm_total.l1.load_hits"),
              1.0);
}

TEST(Sm, AcquireInvalidatesL1)
{
    Warp w;
    w.ld(0, 1);              // fill L1
    w.acqFence(Scope::Gpu, 1);
    w.ld(0, 1);              // must miss the (now empty) L1
    auto res = runTrace(Protocol::Hmg, oneCtaTrace(std::move(w)));
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.l1.load_hits"), 0);
    EXPECT_GE(res.stats.get("sm_total.l1.bulk_invalidations"), 1.0);
}

TEST(Sm, AtomicsBlockAndComplete)
{
    Warp w;
    for (int i = 0; i < 8; ++i)
        w.atom(i * 128, Scope::Gpu, 2);
    auto res = runTrace(Protocol::Hmg, oneCtaTrace(std::move(w)));
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.atomics"), 8);
}

TEST(Sm, ManyOutstandingLoadsComplete)
{
    // More loads than the MSHR budget: the throttle must queue and
    // drain, not deadlock or drop.
    SystemConfig cfg = testing::smallConfig(Protocol::Hmg);
    cfg.smMaxOutstanding = 4;
    Trace t;
    Kernel k;
    Cta cta;
    for (int wi = 0; wi < 4; ++wi) {
        Warp w;
        for (int i = 0; i < 64; ++i)
            w.ld((wi * 64 + i) * 128, 0);
        cta.warps.push_back(std::move(w));
    }
    k.ctas.push_back(std::move(cta));
    t.kernels.push_back(std::move(k));
    Simulator sim(cfg);
    auto res = sim.run(t);
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.loads"), 256);
}

TEST(Sm, ReleaseStoreOrdersAfterPriorWrites)
{
    // st data; st.release flag — by trace completion everything must
    // have drained; this exercises the release path through the SM.
    Warp w;
    w.st(0, 1);
    w.st(0x200000, 1, Scope::Sys, /*release=*/true);
    auto res = runTrace(Protocol::Hmg, oneCtaTrace(std::move(w)));
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.stores"), 2);
    EXPECT_GE(res.stats.get("protocol.releases"), 1.0);
}

TEST(Sm, LatencyHidingAcrossWarps)
{
    // 8 warps of independent loads should take far less than 8x one
    // warp's serial time.
    auto serial = [&](int warps) {
        Trace t;
        Kernel k;
        Cta cta;
        for (int wi = 0; wi < warps; ++wi) {
            Warp w;
            for (int i = 0; i < 32; ++i)
                w.ld((wi * 32 + i) * 128, 0);
            cta.warps.push_back(std::move(w));
        }
        k.ctas.push_back(std::move(cta));
        t.kernels.push_back(std::move(k));
        Simulator sim(testing::smallConfig(Protocol::Hmg));
        return sim.run(t).cycles;
    };
    Tick one = serial(1);
    Tick eight = serial(8);
    EXPECT_LT(eight, 3 * one);
}

TEST(Sm, ParkedWarpResumesAtTheSameOp)
{
    // One in-flight load per warp: the second load parks at the limit,
    // the atomic parks at its drain, and the last loads park the warp's
    // retirement. Each resumes exactly the op it parked on, so every op
    // runs once, by type.
    SystemConfig cfg = testing::smallConfig(Protocol::Hmg);
    cfg.warpMaxInflightLoads = 1;
    cfg.checkCoherence = true;
    Warp w;
    w.ld(0x0000, 0);
    w.ld(0x1000, 0);             // parks at the load limit
    w.atom(0x2000, Scope::Gpu, 0); // parks at the drain
    w.st(0x3000, 0);
    w.ld(0x4000, 0);
    w.acqFence(Scope::Gpu, 0);   // parks at the drain
    w.ld(0x5000, 0);             // retirement waits for it
    Simulator sim(cfg);
    const SimResult res = sim.run(oneCtaTrace(std::move(w)));
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.ops"), 7);
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.loads"), 4);
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.atomics"), 1);
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.stores"), 1);
}

TEST(Sm, WarpPoolStaysAtResidentPeak)
{
    // 64 CTAs of 4 warps on 8 SMs of 8 warp slots: each SM hosts two
    // CTAs at once and runs eight in turn, reusing the same 8 contexts.
    SystemConfig cfg = testing::smallConfig(Protocol::Hmg);
    Trace t;
    Kernel k;
    for (int c = 0; c < 64; ++c) {
        Cta cta;
        for (int wi = 0; wi < 4; ++wi) {
            Warp w;
            for (int i = 0; i < 4; ++i)
                w.ld(((c * 4 + wi) * 4 + i) * 128, 1);
            cta.warps.push_back(std::move(w));
        }
        k.ctas.push_back(std::move(cta));
    }
    t.kernels.push_back(std::move(k));
    Simulator sim(cfg);
    const SimResult res = sim.run(t);
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.ops"), 64 * 4 * 4);
    ASSERT_EQ(sim.system().numSms(), 8u);
    for (SmId s = 0; s < sim.system().numSms(); ++s)
        EXPECT_EQ(sim.system().sm(s).warpSlots(), cfg.maxWarpsPerSm)
            << "sm " << s;
}

} // namespace
} // namespace hmg
