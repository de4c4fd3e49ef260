/**
 * @file
 * Protocol-engine behaviour tests: the Table I directory transitions of
 * NHCC and HMG, hierarchical sharer tracking and invalidation
 * forwarding (Section V), software-coherence bulk-invalidation rules
 * (Section VI), the no-remote-caching baseline, and the idealized
 * model's intentional incoherence.
 */

#include <gtest/gtest.h>

#include "core/hw_protocol.hh"
#include "test_system.hh"

namespace hmg
{
namespace
{

using testing::DirectDrive;

constexpr Addr kA = 0x000000;  // page 0
constexpr Addr kB = 0x200000;  // page 1

Addr
lineIn(Addr page, std::uint64_t idx)
{
    return page + idx * 128;
}

// ---------------------------------------------------------- Table I (HW)

TEST(TableOne, RemoteLoadAllocatesSharerEntry)
{
    // "I + Remote Ld -> add s to sharers, V" and
    // "V + Remote Ld -> add s to sharers".
    DirectDrive d(Protocol::Nhcc);
    d.place(kA, 0);
    EXPECT_EQ(d.sys.gpm(0).dir()->validCount(), 0u);
    d.load(2, kA); // GPM1 loads
    DirEntry *e = d.sys.gpm(0).dir()->find(kA);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->hasGpm(1));
    d.load(4, kA); // GPM2 loads too
    e = d.sys.gpm(0).dir()->find(kA);
    EXPECT_TRUE(e->hasGpm(1));
    EXPECT_TRUE(e->hasGpm(2));
}

TEST(TableOne, LocalAccessesNeedNoEntry)
{
    // "I + Local Ld/St -> -": accesses by the home itself are untracked.
    DirectDrive d(Protocol::Nhcc);
    d.place(kA, 0);
    d.load(0, kA);
    d.store(0, kA);
    EXPECT_EQ(d.sys.gpm(0).dir()->validCount(), 0u);
}

TEST(TableOne, RemoteStoreInvalidatesOtherSharers)
{
    // "V + Remote St -> add s to sharers, inv other sharers".
    DirectDrive d(Protocol::Nhcc);
    d.place(kA, 0);
    d.load(2, kA); // GPM1 caches
    d.load(4, kA); // GPM2 caches
    EXPECT_TRUE(d.l2Has(1, kA));
    EXPECT_TRUE(d.l2Has(2, kA));

    d.store(6, kA); // GPM3 writes
    EXPECT_FALSE(d.l2Has(1, kA));
    EXPECT_FALSE(d.l2Has(2, kA));
    // The writer is now the only tracked sharer.
    DirEntry *e = d.sys.gpm(0).dir()->find(kA);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->hasGpm(3));
    EXPECT_FALSE(e->hasGpm(1));
    EXPECT_FALSE(e->hasGpm(2));
}

TEST(TableOne, LocalStoreInvalidatesAllSharers)
{
    // "V + Local St -> inv all sharers, I".
    DirectDrive d(Protocol::Nhcc);
    d.place(kA, 0);
    d.load(2, kA);
    d.store(0, kA); // the home itself writes
    EXPECT_FALSE(d.l2Has(1, kA));
    // The entry transitioned to Invalid (no sharers left to track).
    EXPECT_EQ(d.sys.gpm(0).dir()->find(kA), nullptr);
}

TEST(TableOne, DirectoryEvictionInvalidatesSharers)
{
    // "V + Replace Dir Entry -> inv all sharers, I". The small harness
    // directory has 16 sets x 4 ways of 512 B sectors; filling one set
    // with 5 tracked sectors forces an eviction.
    DirectDrive d(Protocol::Nhcc);
    const std::uint64_t sets = d.sys.gpm(0).dir()->numSets();
    for (std::uint64_t i = 0; i < 5; ++i) {
        Addr a = kA + i * sets * 512;
        d.place(a, 0);
        d.load(2, a);
        EXPECT_TRUE(d.l2Has(1, a));
    }
    // The first-tracked sector was evicted; its sharer's line is gone.
    EXPECT_FALSE(d.l2Has(1, kA));
    StatRecorder r;
    d.model().reportStats(r);
    EXPECT_GE(r.get("protocol.evict_inv_events"), 1.0);
}

TEST(TableOne, InvalidationCoversWholeSector)
{
    // Directory entries track 4-line sectors; a store to one line
    // invalidates the sharer's whole sector (false sharing).
    DirectDrive d(Protocol::Nhcc);
    d.place(kA, 0);
    for (std::uint64_t l = 0; l < 4; ++l)
        d.load(2, lineIn(kA, l));
    d.store(4, lineIn(kA, 1));
    for (std::uint64_t l = 0; l < 4; ++l)
        EXPECT_FALSE(d.l2Has(1, lineIn(kA, l))) << "line " << l;
    StatRecorder r;
    d.model().reportStats(r);
    EXPECT_EQ(r.get("protocol.store_inv_lines"), 4.0);
}

// -------------------------------------------------- HMG hierarchy (Sec V)

TEST(HmgHierarchy, SysHomeTracksGpusNotGpms)
{
    DirectDrive d(Protocol::Hmg);
    d.place(kA, 0); // sys home GPM0 (GPU0); GPU1's home is GPM2
    d.load(6, kA);  // SM6 -> GPM3 (GPU1)
    // The system home records GPU1 (not GPM3).
    DirEntry *e = d.sys.gpm(0).dir()->find(kA);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->hasGpu(1));
    EXPECT_EQ(e->gpmSharers, 0u);
    // GPU1's home (GPM2) records GPM3 (local index 1).
    DirEntry *g = d.sys.gpm(2).dir()->find(kA);
    ASSERT_NE(g, nullptr);
    EXPECT_TRUE(g->hasGpm(1));
}

TEST(HmgHierarchy, LoadFillsGpuHomeOnTheWay)
{
    DirectDrive d(Protocol::Hmg);
    d.place(kA, 0);
    d.load(6, kA); // GPM3 requester; GPU1 home is GPM2
    EXPECT_TRUE(d.l2Has(3, kA));
    EXPECT_TRUE(d.l2Has(2, kA));
}

TEST(HmgHierarchy, SecondGpmHitsGpuHomeWithoutCrossingGpus)
{
    DirectDrive d(Protocol::Hmg);
    d.place(kA, 0);
    d.load(6, kA);
    const auto inter_before =
        d.sys.network().interGpuBytes(MsgType::ReadResp);
    // Drop the requester's own copy so its next load goes to the GPU
    // home — which must satisfy it without inter-GPU traffic.
    d.sys.gpm(3).l2().invalidateLine(kA);
    auto *hw = dynamic_cast<HwProtocol *>(&d.model());
    ASSERT_NE(hw, nullptr);
    const auto gpu_hits_before = hw->loadsGpuHomeHit();
    d.load(6, kA);
    EXPECT_EQ(d.sys.network().interGpuBytes(MsgType::ReadResp),
              inter_before);
    EXPECT_EQ(hw->loadsGpuHomeHit(), gpu_hits_before + 1);
}

TEST(HmgHierarchy, InvalidationForwardedThroughGpuHome)
{
    // Table I's HMG-only transition: an invalidation arriving at a GPU
    // home is re-fanned to its GPM sharers and the entry goes Invalid.
    DirectDrive d(Protocol::Hmg);
    d.place(kA, 0);
    d.load(4, kA); // GPM2 (GPU1's home for kA) caches
    d.load(6, kA); // GPM3 caches; tracked at GPM2
    EXPECT_TRUE(d.l2Has(2, kA));
    EXPECT_TRUE(d.l2Has(3, kA));

    d.store(0, kA); // write at the system home
    EXPECT_FALSE(d.l2Has(2, kA));
    EXPECT_FALSE(d.l2Has(3, kA));
    EXPECT_EQ(d.sys.gpm(2).dir()->find(kA), nullptr);
}

TEST(HmgHierarchy, GpuScopedReleaseStaysOnGpu)
{
    DirectDrive d(Protocol::Hmg);
    d.place(kA, 1); // homed within GPU0
    d.storeAsync(0, kA);
    const auto markers_before = d.sys.network().messages(MsgType::RelMarker);
    d.release(0, Scope::Gpu);
    // One marker to the only other GPM of GPU0.
    EXPECT_EQ(d.sys.network().messages(MsgType::RelMarker),
              markers_before + 1);
}

TEST(HmgHierarchy, SysScopedReleaseRunsTwoRounds)
{
    DirectDrive d(Protocol::Hmg);
    d.place(kA, 3);
    d.storeAsync(0, kA);
    d.release(0, Scope::Sys);
    // Two rounds x 3 remote GPMs.
    EXPECT_EQ(d.sys.network().messages(MsgType::RelMarker), 6u);
    EXPECT_EQ(d.sys.network().messages(MsgType::RelAck), 6u);
}

TEST(NhccFlat, GpuReleaseBroadcastsSystemWide)
{
    // Without hierarchy, even `.gpu` releases must reach every L2.
    DirectDrive d(Protocol::Nhcc);
    d.place(kA, 3);
    d.storeAsync(0, kA);
    d.release(0, Scope::Gpu);
    EXPECT_EQ(d.sys.network().messages(MsgType::RelMarker), 3u);
}

TEST(HwProtocols, CtaScopedFencesAreFree)
{
    for (Protocol p : {Protocol::Nhcc, Protocol::Hmg}) {
        DirectDrive d(p);
        d.release(0, Scope::Cta);
        d.acquire(0, Scope::Cta);
        EXPECT_EQ(d.sys.network().messages(MsgType::RelMarker), 0u);
    }
}

TEST(HmgHierarchy, RelayedReleaseFanoutCutsInterGpuMarkers)
{
    // With hierarchical fan-out, a `.sys` release sends one marker per
    // remote GPU instead of one per remote GPM; relays fan the rest
    // inside their own GPU.
    auto count_inter_ctrl = [](bool relayed) {
        SystemConfig cfg = testing::smallConfig(Protocol::Hmg);
        cfg.hierarchicalReleaseFanout = relayed;
        DirectDrive d(Protocol::Hmg, cfg);
        d.place(kA, 3);
        d.storeAsync(0, kA);
        d.release(0, Scope::Sys);
        return d.sys.network().interGpuBytes(MsgType::RelMarker) +
               d.sys.network().interGpuBytes(MsgType::RelAck);
    };
    EXPECT_LT(count_inter_ctrl(true), count_inter_ctrl(false));
}

TEST(HmgHierarchy, RelayedReleaseStillDrainsInvalidations)
{
    SystemConfig cfg = testing::smallConfig(Protocol::Hmg);
    cfg.hierarchicalReleaseFanout = true;
    DirectDrive d(Protocol::Hmg, cfg);
    d.place(kA, 3);
    d.load(0, kA); // GPM0 caches (stale-to-be)
    Version v1 = d.storeAsync(6, kA);
    d.release(6, Scope::Sys);
    // After the relayed release completes (engine quiesced by the
    // harness), the stale copy must be gone and the home current.
    EXPECT_FALSE(d.l2Has(0, kA));
    EXPECT_EQ(d.sys.memory().read(kA), v1);
}

// ------------------------------------------------- software coherence

TEST(SwCoherence, GpuAcquireInvalidatesLocalL2Only)
{
    DirectDrive d(Protocol::SwNonHier);
    d.place(kA, 3);
    d.load(0, kA); // GPM0 caches
    d.load(2, kA); // GPM1 caches
    d.acquire(0, Scope::Gpu);
    EXPECT_FALSE(d.l2Has(0, kA));
    EXPECT_TRUE(d.l2Has(1, kA));
}

TEST(SwCoherence, NonHierSysAcquireAlsoLocalOnly)
{
    // Section VI: "in the non-hierarchical protocol, .sys-scoped loads
    // need not invalidate L2 caches in other GPMs of the same GPU".
    DirectDrive d(Protocol::SwNonHier);
    d.place(kA, 3);
    d.load(0, kA);
    d.load(2, kA);
    d.acquire(0, Scope::Sys);
    EXPECT_FALSE(d.l2Has(0, kA));
    EXPECT_TRUE(d.l2Has(1, kA));
}

TEST(SwCoherence, HierSysAcquireInvalidatesWholeGpu)
{
    // Section VI: hierarchical `.sys` acquires invalidate all L2s of
    // the issuing GPU (loads route through the GPU home).
    DirectDrive d(Protocol::SwHier);
    d.place(kA, 3);
    d.load(0, kA);
    d.load(2, kA);
    d.load(4, kA); // other GPU: untouched
    d.acquire(0, Scope::Sys);
    EXPECT_FALSE(d.l2Has(0, kA));
    EXPECT_FALSE(d.l2Has(1, kA));
    EXPECT_TRUE(d.l2Has(2, kA));
}

TEST(SwCoherence, KernelBoundaryFlushesEveryL2)
{
    for (Protocol p : {Protocol::SwNonHier, Protocol::SwHier}) {
        DirectDrive d(p);
        d.place(kA, 3);
        d.load(0, kA);
        d.load(6, kA);
        d.model().kernelBoundary();
        EXPECT_FALSE(d.l2Has(0, kA));
        EXPECT_FALSE(d.l2Has(3, kA));
    }
}

TEST(HwCoherence, KernelBoundaryKeepsL2Warm)
{
    for (Protocol p : {Protocol::Nhcc, Protocol::Hmg}) {
        DirectDrive d(p);
        d.place(kA, 3);
        d.load(0, kA);
        d.model().kernelBoundary();
        EXPECT_TRUE(d.l2Has(0, kA));
    }
}

TEST(SwCoherence, NoInvalidationMessagesEver)
{
    DirectDrive d(Protocol::SwHier);
    d.place(kA, 3);
    d.load(0, kA);
    d.load(4, kA);
    d.store(6, kA);
    EXPECT_EQ(d.sys.network().messages(MsgType::Inv), 0u);
}

// -------------------------------------------------------- baseline/ideal

TEST(NoRemoteCache, RemoteGpuDataNeverCachedLocally)
{
    DirectDrive d(Protocol::NoRemoteCache);
    d.place(kA, 3); // homed on GPU1
    d.load(0, kA);  // GPM0 (GPU0) reads
    EXPECT_FALSE(d.l2Has(0, kA));
    EXPECT_FALSE(d.model().mayCache(0, kA));
    // Same-GPU data is cacheable.
    d.place(kB, 1);
    d.load(0, kB);
    EXPECT_TRUE(d.l2Has(0, kB));
    EXPECT_TRUE(d.model().mayCache(0, kB));
}

TEST(NoRemoteCache, RemoteReadsAlwaysCrossTheSwitch)
{
    DirectDrive d(Protocol::NoRemoteCache);
    d.place(kA, 3);
    d.load(0, kA);
    auto first = d.sys.network().interGpuBytes(MsgType::ReadResp);
    d.load(0, kA);
    auto second = d.sys.network().interGpuBytes(MsgType::ReadResp);
    EXPECT_EQ(second, 2 * first);
}

TEST(Ideal, SysScopedLoadMayHitLocally)
{
    DirectDrive d(Protocol::Ideal);
    d.place(kA, 3);
    d.load(0, kA); // fills GPM0
    auto before = d.sys.network().interGpuBytes(MsgType::ReadResp);
    d.load(0, kA, Scope::Sys); // hits locally despite the scope
    EXPECT_EQ(d.sys.network().interGpuBytes(MsgType::ReadResp), before);
}

TEST(Ideal, KeepsStandardL1Semantics)
{
    // The upper bound idealizes L2 caching only; the software-managed
    // L1 behaves as in every real configuration.
    DirectDrive d(Protocol::Ideal);
    EXPECT_TRUE(d.model().invalidatesL1OnAcquire());
}

TEST(Ideal, StaleReadsAreAllowed)
{
    // The upper-bound model is intentionally incoherent: a store by a
    // remote GPM does not invalidate cached copies.
    DirectDrive d(Protocol::Ideal);
    d.place(kA, 3);
    Version v0 = d.load(0, kA);
    d.store(6, kA);
    EXPECT_EQ(d.load(0, kA), v0);
}

// --------------------------------------------------------- ablation knobs

TEST(Downgrade, PrunesSharerAtLineGranularity)
{
    SystemConfig cfg = testing::smallConfig(Protocol::Nhcc);
    cfg.sharerDowngrade = true;
    cfg.dirLinesPerEntry = 1;
    DirectDrive d(Protocol::Nhcc, cfg);
    d.place(kA, 0);
    d.load(2, kA);
    ASSERT_TRUE(d.sys.gpm(0).dir()->find(kA)->hasGpm(1));
    // Evict the line from GPM1's tiny L2 by filling its set.
    auto &l2 = d.sys.gpm(1).l2();
    const std::uint64_t sets = l2.tags().numSets();
    for (std::uint32_t w = 0; w <= d.cfg().l2Ways; ++w)
        l2.fill(kA + w * sets * 128, 1);
    d.engine().run(); // deliver the downgrade
    DirEntry *e = d.sys.gpm(0).dir()->find(kA);
    if (e != nullptr) {
        EXPECT_FALSE(e->hasGpm(1));
    }
    StatRecorder r;
    d.model().reportStats(r);
    EXPECT_GE(r.get("protocol.downgrades"), 1.0);
}

} // namespace
} // namespace hmg
