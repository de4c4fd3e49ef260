/**
 * @file
 * Scoped memory-model litmus tests, parameterized over every *coherent*
 * protocol (the idealized-caching model is deliberately incoherent and
 * is exempt). These validate the guarantees the NVIDIA scoped model
 * requires (Section II-C): message passing through release/acquire at
 * `.gpu` and `.sys` scope, the forced-miss rules for scoped loads, and
 * atomic serialization at the scope home.
 *
 * The machine is the small 2-GPU x 2-GPM harness:
 *   SMs 0,1 -> GPM0 (GPU0)   SMs 2,3 -> GPM1 (GPU0)
 *   SMs 4,5 -> GPM2 (GPU1)   SMs 6,7 -> GPM3 (GPU1)
 */

#include <gtest/gtest.h>

#include "core/checker.hh"
#include "test_system.hh"

namespace hmg
{
namespace
{

using testing::DirectDrive;

class LitmusTest : public ::testing::TestWithParam<Protocol>
{
};

constexpr Addr kData = 0x000000; // page 0
constexpr Addr kFlag = 0x200000; // page 1

/**
 * Message passing: reader seeds a stale copy of DATA, writer publishes
 * DATA then FLAG with a release, reader spins on an acquire-load of
 * FLAG and must then observe the new DATA.
 */
void
runMessagePassing(DirectDrive &d, SmId writer, SmId reader, Scope scope,
                  GpmId data_home, GpmId flag_home)
{
    d.place(kData, data_home);
    d.place(kFlag, flag_home);

    // Seed a (soon stale) copy of DATA in the reader's caches.
    Version v0 = d.load(reader, kData);
    EXPECT_EQ(v0, 0u);

    // Writer: DATA = v1; release; FLAG = v2.
    Version v1 = d.store(writer, kData);
    d.release(writer, scope);
    Version v2 = d.store(writer, kFlag);

    // Reader: acquire-load FLAG until it observes v2 (spin loop).
    int spins = 0;
    Version flag_seen = 0;
    while (flag_seen < v2) {
        flag_seen = d.load(reader, kFlag, scope);
        ASSERT_LT(++spins, 100) << "flag never became visible";
    }
    d.acquire(reader, scope);

    // Relaxed reload of DATA must observe at least v1.
    Version data_seen = d.load(reader, kData);
    EXPECT_GE(data_seen, v1)
        << "stale data after synchronization (protocol "
        << toString(d.cfg().protocol) << ")";
}

TEST_P(LitmusTest, MessagePassingSysScopeAcrossGpus)
{
    DirectDrive d(GetParam());
    // Writer on GPU0, reader on GPU1; data homed on the reader's GPU,
    // flag homed on a third GPM.
    runMessagePassing(d, /*writer=*/0, /*reader=*/4, Scope::Sys,
                      /*data_home=*/3, /*flag_home=*/1);
}

TEST_P(LitmusTest, MessagePassingSysScopeDataHomedAtWriter)
{
    DirectDrive d(GetParam());
    runMessagePassing(d, 0, 6, Scope::Sys, /*data_home=*/0,
                      /*flag_home=*/2);
}

TEST_P(LitmusTest, MessagePassingGpuScopeWithinGpu)
{
    DirectDrive d(GetParam());
    // Writer GPM0, reader GPM1 (both GPU0); data homed on a *remote*
    // GPU to stress the GPU-home path.
    runMessagePassing(d, /*writer=*/0, /*reader=*/2, Scope::Gpu,
                      /*data_home=*/3, /*flag_home=*/2);
}

TEST_P(LitmusTest, MessagePassingGpuScopeLocalData)
{
    DirectDrive d(GetParam());
    runMessagePassing(d, 0, 2, Scope::Gpu, /*data_home=*/1,
                      /*flag_home=*/0);
}

TEST_P(LitmusTest, RepeatedRounds)
{
    DirectDrive d(GetParam());
    d.place(kData, 3);
    d.place(kFlag, 1);
    Version last_flag = 0;
    for (int round = 0; round < 5; ++round) {
        Version v1 = d.store(0, kData);
        d.release(0, Scope::Sys);
        Version v2 = d.store(0, kFlag);
        Version seen = 0;
        int spins = 0;
        while (seen < v2) {
            seen = d.load(5, kFlag, Scope::Sys);
            ASSERT_LT(++spins, 100);
        }
        d.acquire(5, Scope::Sys);
        EXPECT_GE(d.load(5, kData), v1);
        EXPECT_GT(v2, last_flag);
        last_flag = v2;
    }
}

TEST_P(LitmusTest, ScopedLoadBypassesStaleLocalCopy)
{
    DirectDrive d(GetParam());
    d.place(kData, 3);
    // Reader (GPM0) caches version 0.
    EXPECT_EQ(d.load(0, kData), 0u);
    // Another SM on the *same GPM* writes; the writer's own GPM now has
    // the new version, but we check the home-path rules from a third
    // GPM that still holds nothing.
    Version v1 = d.store(6, kData);
    // A `.sys`-scoped load may only hit at the system home, so it must
    // observe v1 no matter what the local L2 held.
    EXPECT_EQ(d.load(0, kData, Scope::Sys), v1);
}

TEST_P(LitmusTest, AtomicReadsLatestAndSerializes)
{
    DirectDrive d(GetParam());
    d.place(kData, 2);
    Version v1 = d.store(0, kData);
    auto [old1, mine1] = d.atomic(4, kData, Scope::Sys);
    EXPECT_EQ(old1, v1);
    auto [old2, mine2] = d.atomic(1, kData, Scope::Sys);
    EXPECT_EQ(old2, mine1);
    (void)mine2;
}

TEST_P(LitmusTest, GpuScopedAtomicSerializesWithinGpu)
{
    DirectDrive d(GetParam());
    d.place(kData, 1);
    auto [old1, mine1] = d.atomic(0, kData, Scope::Gpu);
    EXPECT_EQ(old1, 0u);
    auto [old2, mine2] = d.atomic(2, kData, Scope::Gpu);
    EXPECT_EQ(old2, mine1);
    (void)mine2;
}

TEST_P(LitmusTest, ReleaseWaitsForPendingWrites)
{
    DirectDrive d(GetParam());
    d.place(kData, 3);
    // Post a write without draining, then release: by the time the
    // release completes, the write must be at the system home.
    Version v = d.storeAsync(0, kData);
    d.release(0, Scope::Sys);
    EXPECT_EQ(d.sys.memory().read(kData), v);
    // And any other SM's `.sys` load observes it.
    EXPECT_EQ(d.load(7, kData, Scope::Sys), v);
}

TEST_P(LitmusTest, WriteSeenByHomeAfterDrain)
{
    DirectDrive d(GetParam());
    d.place(kData, 2);
    Version v = d.store(5, kData);
    EXPECT_EQ(d.sys.memory().read(0), v);
    EXPECT_EQ(d.load(5, kData), v);
}

INSTANTIATE_TEST_SUITE_P(
    AllCoherentProtocols, LitmusTest,
    ::testing::Values(Protocol::NoRemoteCache, Protocol::SwNonHier,
                      Protocol::SwHier, Protocol::Nhcc, Protocol::Hmg),
    [](const ::testing::TestParamInfo<Protocol> &info) {
        std::string n = toString(info.param);
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

// ------------------------------------------------------------------
// The same scoped litmus shapes, re-run with the runtime coherence
// checker (`--check`) interposed: every load, release and acquire is
// verified against the version oracle while the protocol runs, so a
// protocol bug fails here even if the litmus assertion itself would
// have passed by luck.
// ------------------------------------------------------------------

constexpr Addr kExtra = 0x400000; // page 2, for the WRC third line

class CheckedLitmusTest : public ::testing::TestWithParam<Protocol>
{
  protected:
    static SystemConfig
    checkedConfig(Protocol p)
    {
        SystemConfig cfg = testing::smallConfig(p);
        cfg.checkCoherence = true;
        return cfg;
    }

    /** The wrapping checker (the harness installed it via cfg). */
    static CoherenceChecker &
    checker(DirectDrive &d)
    {
        auto *c = dynamic_cast<CoherenceChecker *>(&d.sys.model());
        EXPECT_NE(c, nullptr);
        return *c;
    }
};

TEST_P(CheckedLitmusTest, MessagePassingSysScopeAcrossGpus)
{
    DirectDrive d(GetParam(), checkedConfig(GetParam()));
    runMessagePassing(d, /*writer=*/0, /*reader=*/4, Scope::Sys,
                      /*data_home=*/3, /*flag_home=*/1);
    EXPECT_GT(checker(d).checksPerformed(), 0u);
}

TEST_P(CheckedLitmusTest, MessagePassingGpuScopeWithinGpu)
{
    DirectDrive d(GetParam(), checkedConfig(GetParam()));
    runMessagePassing(d, /*writer=*/0, /*reader=*/2, Scope::Gpu,
                      /*data_home=*/3, /*flag_home=*/2);
    EXPECT_GT(checker(d).checksPerformed(), 0u);
}

TEST_P(CheckedLitmusTest, StoreBufferingSysScope)
{
    DirectDrive d(GetParam(), checkedConfig(GetParam()));
    d.place(kData, 0);
    d.place(kFlag, 3);
    // SB: each side publishes its line, fences at .sys, then reads the
    // other's. The forbidden outcome (both read 0) must be unreachable;
    // with the synchronous drive the second reader must see the first
    // writer's value.
    Version x1 = d.store(0, kData);
    d.release(0, Scope::Sys);
    Version r1 = d.load(0, kFlag, Scope::Sys);
    Version y1 = d.store(4, kFlag);
    d.release(4, Scope::Sys);
    Version r2 = d.load(4, kData, Scope::Sys);
    EXPECT_FALSE(r1 == 0 && r2 == 0) << "SB forbidden outcome";
    EXPECT_EQ(r2, x1);
    (void)y1;
    EXPECT_GT(checker(d).checksPerformed(), 0u);
}

TEST_P(CheckedLitmusTest, WriteToReadCausalitySysScope)
{
    DirectDrive d(GetParam(), checkedConfig(GetParam()));
    d.place(kData, 0);
    d.place(kFlag, 3);
    d.place(kExtra, 2);
    // WRC: T0 publishes DATA; T1 observes it, then publishes EXTRA; T2
    // observes EXTRA and must (transitively) observe DATA.
    EXPECT_EQ(d.load(6, kData), 0u); // plant a stale copy at T2
    Version v1 = d.store(0, kData);
    d.release(0, Scope::Sys);

    Version seen = d.load(2, kData, Scope::Sys);
    EXPECT_EQ(seen, v1);
    d.acquire(2, Scope::Sys);
    d.release(2, Scope::Sys);
    Version v2 = d.store(2, kExtra);

    int spins = 0;
    Version e = 0;
    while (e < v2) {
        e = d.load(6, kExtra, Scope::Sys);
        ASSERT_LT(++spins, 100);
    }
    d.acquire(6, Scope::Sys);
    EXPECT_GE(d.load(6, kData), v1) << "WRC causality broken";
    EXPECT_GT(checker(d).checksPerformed(), 0u);
}

TEST_P(CheckedLitmusTest, RepeatedRoundsUnderChecker)
{
    DirectDrive d(GetParam(), checkedConfig(GetParam()));
    d.place(kData, 3);
    d.place(kFlag, 1);
    for (int round = 0; round < 3; ++round) {
        Version v1 = d.store(1, kData);
        d.release(1, Scope::Sys);
        Version v2 = d.store(1, kFlag);
        Version seen = 0;
        int spins = 0;
        while (seen < v2) {
            seen = d.load(7, kFlag, Scope::Sys);
            ASSERT_LT(++spins, 100);
        }
        d.acquire(7, Scope::Sys);
        EXPECT_GE(d.load(7, kData), v1);
    }
    EXPECT_GT(checker(d).checksPerformed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    CheckedProtocols, CheckedLitmusTest,
    ::testing::Values(Protocol::SwNonHier, Protocol::SwHier,
                      Protocol::Nhcc, Protocol::Hmg),
    [](const ::testing::TestParamInfo<Protocol> &info) {
        std::string n = toString(info.param);
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

// ------------------------------------------------------------------
// Three-level litmus: the same scoped guarantees on the minimal
// 2-node x 2-GPU x 2-GPM machine, where a sys-scope release must climb
// requester -> GPU home -> node home -> system home and the acquire
// path crosses the node switches. The coherence checker is interposed
// throughout. GPM g holds SMs {2g, 2g+1}; node 0 owns GPMs 0..3,
// node 1 owns GPMs 4..7.
// ------------------------------------------------------------------

class ThreeLevelLitmusTest : public ::testing::TestWithParam<Protocol>
{
  protected:
    static SystemConfig
    threeLevelConfig(Protocol p)
    {
        SystemConfig cfg = testing::smallConfig(p);
        cfg.numNodes = 2;
        cfg.numGpus = 4;
        cfg.checkCoherence = true;
        return cfg;
    }

    static CoherenceChecker &
    checker(DirectDrive &d)
    {
        auto *c = dynamic_cast<CoherenceChecker *>(&d.sys.model());
        EXPECT_NE(c, nullptr);
        return *c;
    }
};

TEST_P(ThreeLevelLitmusTest, MessagePassingSysScopeAcrossNodes)
{
    DirectDrive d(GetParam(), threeLevelConfig(GetParam()));
    // Writer on node 0, reader on node 1, data homed on the reader's
    // node, flag homed on the writer's — every message crosses the
    // node uplinks in at least one direction.
    runMessagePassing(d, /*writer=*/0, /*reader=*/8, Scope::Sys,
                      /*data_home=*/6, /*flag_home=*/2);
    EXPECT_GT(checker(d).checksPerformed(), 0u);
}

TEST_P(ThreeLevelLitmusTest, MessagePassingGpuScopeOnRemoteNode)
{
    DirectDrive d(GetParam(), threeLevelConfig(GetParam()));
    // Both threads live on node 1's GPU 2; a .gpu-scope release must
    // not need the (remote) system home on node 0 for visibility
    // within the GPU.
    runMessagePassing(d, /*writer=*/8, /*reader=*/10, Scope::Gpu,
                      /*data_home=*/1, /*flag_home=*/5);
    EXPECT_GT(checker(d).checksPerformed(), 0u);
}

TEST_P(ThreeLevelLitmusTest, StoreBufferingSysScopeAcrossNodes)
{
    DirectDrive d(GetParam(), threeLevelConfig(GetParam()));
    d.place(kData, 0);
    d.place(kFlag, 7);
    Version x1 = d.store(2, kData);
    d.release(2, Scope::Sys);
    Version r1 = d.load(2, kFlag, Scope::Sys);
    Version y1 = d.store(12, kFlag);
    d.release(12, Scope::Sys);
    Version r2 = d.load(12, kData, Scope::Sys);
    EXPECT_FALSE(r1 == 0 && r2 == 0) << "SB forbidden outcome";
    EXPECT_EQ(r2, x1);
    (void)y1;
    EXPECT_GT(checker(d).checksPerformed(), 0u);
}

TEST_P(ThreeLevelLitmusTest, RepeatedRoundsAcrossNodesUnderChecker)
{
    DirectDrive d(GetParam(), threeLevelConfig(GetParam()));
    d.place(kData, 5);
    d.place(kFlag, 3);
    for (int round = 0; round < 3; ++round) {
        Version v1 = d.store(1, kData);
        d.release(1, Scope::Sys);
        Version v2 = d.store(1, kFlag);
        Version seen = 0;
        int spins = 0;
        while (seen < v2) {
            seen = d.load(15, kFlag, Scope::Sys);
            ASSERT_LT(++spins, 100);
        }
        d.acquire(15, Scope::Sys);
        EXPECT_GE(d.load(15, kData), v1);
    }
    EXPECT_GT(checker(d).checksPerformed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    CheckedProtocols, ThreeLevelLitmusTest,
    ::testing::Values(Protocol::SwNonHier, Protocol::SwHier,
                      Protocol::Nhcc, Protocol::Hmg),
    [](const ::testing::TestParamInfo<Protocol> &info) {
        std::string n = toString(info.param);
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

// ------------------------------------------------------------------
// The checker's coverage rule: a copy whose next home up has lost its
// sharer bit is reported, naming the copy's GPM. Each case loads a line
// homed at GPM 0, wipes the bits of one home's entry, and loads again
// from the same SM, so the second load hits the copy and the checker
// scans it.
// ------------------------------------------------------------------

/** Load kData (homed at GPM 0) from `sm`, clear the sharer bits of the
 *  entry at GPM `wipe`, and load again. */
void
loadAfterWipe(Protocol p, SmId sm, GpmId wipe, std::uint32_t nodes = 1)
{
    SystemConfig cfg = testing::smallConfig(p);
    cfg.numNodes = nodes;
    cfg.numGpus = 2 * nodes;
    cfg.checkCoherence = true;
    DirectDrive d(p, cfg);
    d.place(kData, 0);
    d.load(sm, kData);
    DirEntry *e = d.sys.gpm(wipe).dir()->find(kData);
    ASSERT_NE(e, nullptr);
    e->gpmSharers = e->gpuSharers = e->nodeSharers = 0;
    d.load(sm, kData);
}

TEST(CheckerCoverageDeath, NamesTheCopyItsNextHomeLostTrackOf)
{
    // NHCC: GPM 1 is tracked by the system home itself.
    EXPECT_DEATH(loadAfterWipe(Protocol::Nhcc, 2, 0),
                 "GPM 1 caches line 0 .* no covering directory state");
    // HMG: GPM 3 by its GPU home, GPM 2; GPM 2 by the system home.
    EXPECT_DEATH(loadAfterWipe(Protocol::Hmg, 6, 2),
                 "GPM 3 caches line 0 .* no covering directory state");
    EXPECT_DEATH(loadAfterWipe(Protocol::Hmg, 4, 0),
                 "GPM 2 caches line 0 .* no covering directory state");
    // 2 nodes x 2 GPUs x 2 GPMs: GPM 6, a GPU home on node 1, is
    // tracked by its node home, GPM 4, and GPM 4 by the system home.
    EXPECT_DEATH(loadAfterWipe(Protocol::Hmg, 12, 4, 2),
                 "GPM 6 caches line 0 .* no covering directory state");
    EXPECT_DEATH(loadAfterWipe(Protocol::Hmg, 12, 0, 2),
                 "GPM 4 caches line 0 .* no covering directory state");
}

} // namespace
} // namespace hmg
