/**
 * @file
 * Property-based tests: randomized traces and randomized message-
 * passing placements checked against the memory-model oracle and
 * structural invariants, parameterized over protocols and seeds.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.hh"
#include "gpu/simulator.hh"
#include "test_system.hh"
#include "trace/trace.hh"

namespace hmg
{
namespace
{

using testing::DirectDrive;
using trace::Cta;
using trace::Kernel;
using trace::Trace;
using trace::Warp;

/** Random trace over a small footprint with mixed op types/scopes. */
Trace
randomTrace(std::uint64_t seed, std::uint64_t ctas, std::uint64_t warps,
            std::uint64_t ops)
{
    Rng rng(seed);
    Trace t;
    t.name = "random";
    const std::uint64_t kernels = 2 + rng.below(3);
    const std::uint64_t lines = 512;
    for (std::uint64_t k = 0; k < kernels; ++k) {
        Kernel ker;
        ker.ctas.resize(ctas);
        for (auto &cta : ker.ctas) {
            cta.warps.resize(warps);
            for (auto &w : cta.warps) {
                for (std::uint64_t i = 0; i < ops; ++i) {
                    Addr a = rng.below(lines) * 128;
                    auto delay =
                        static_cast<std::uint32_t>(rng.below(4));
                    switch (rng.below(10)) {
                      case 0:
                        w.st(a, delay);
                        break;
                      case 1:
                        w.atom(a, rng.chance(0.5) ? Scope::Gpu
                                                  : Scope::Sys,
                               delay);
                        break;
                      case 2:
                        w.relFence(rng.chance(0.5) ? Scope::Gpu
                                                   : Scope::Sys,
                                   delay);
                        break;
                      case 3:
                        w.acqFence(rng.chance(0.5) ? Scope::Gpu
                                                   : Scope::Sys,
                                   delay);
                        break;
                      case 4:
                        w.ld(a, delay,
                             rng.chance(0.5) ? Scope::Gpu : Scope::Sys,
                             /*acquire=*/true);
                        break;
                      default:
                        w.ld(a, delay);
                        break;
                    }
                }
            }
        }
        t.kernels.push_back(std::move(ker));
    }
    return t;
}

struct Param
{
    Protocol protocol;
    std::uint64_t seed;
};

class RandomTraceTest : public ::testing::TestWithParam<Param>
{
};

TEST_P(RandomTraceTest, CompletesWithInvariantsIntact)
{
    auto [protocol, seed] = GetParam();
    SystemConfig cfg = testing::smallConfig(protocol);
    Trace t = randomTrace(seed, /*ctas=*/8, /*warps=*/2, /*ops=*/30);
    Simulator sim(cfg);
    auto res = sim.run(t);

    // Completion and conservation.
    EXPECT_DOUBLE_EQ(res.stats.get("sm_total.ops"),
                     static_cast<double>(t.memOps()));
    EXPECT_EQ(sim.system().tracker().totalPendingSys(), 0u);

    // After quiescence, for coherent protocols every cached copy of a
    // line is exactly the authoritative version (write-through + fully
    // delivered invalidations mean no stale copies can outlive a run's
    // final drain *at the home*; non-home copies may legitimately be
    // stale only if an invalidation was never required — i.e. the line
    // was never shared-written — so we check home L2s only).
    auto &sys = sim.system();
    for (GpmId g = 0; g < cfg.totalGpms(); ++g) {
        sys.gpm(g).l2().tags().forEachValid([&](const CacheLine &line) {
            if (sys.pageTable().isPlaced(line.addr) &&
                sys.pageTable().homeOf(line.addr) == g) {
                EXPECT_EQ(line.version, sys.memory().read(line.addr))
                    << "home L2 copy diverged from memory";
            }
        });
    }
}

TEST_P(RandomTraceTest, DirectorySharersCoverCachedCopies)
{
    auto [protocol, seed] = GetParam();
    if (!isHardwareProtocol(protocol))
        GTEST_SKIP() << "directory protocols only";
    SystemConfig cfg = testing::smallConfig(protocol);
    Trace t = randomTrace(seed ^ 0xabcd, 8, 2, 30);
    Simulator sim(cfg);
    sim.run(t);

    // Structural invariant: any non-home L2 holding a line must be
    // covered by home directory state — either directly (flat / same
    // GPU) or via its GPU's sharer bit (HMG). Otherwise a future store
    // could never invalidate it.
    auto &sys = sim.system();
    const bool hier = protocol == Protocol::Hmg;
    for (GpmId g = 0; g < cfg.totalGpms(); ++g) {
        sys.gpm(g).l2().tags().forEachValid([&](const CacheLine &line) {
            const GpmId home = sys.pageTable().homeOf(line.addr);
            if (home == g)
                return;
            if (hier) {
                const GpmId gh = cfg.gpmId(cfg.gpuOf(g), cfg.localGpmOf(home));
                if (gh == g) {
                    // A GPU home is covered at the system home.
                    const DirEntry *e = sys.gpm(home).dir()->find(
                        line.addr);
                    ASSERT_NE(e, nullptr) << "untracked GPU-home copy";
                    EXPECT_TRUE(e->hasGpu(cfg.gpuOf(g)));
                } else {
                    const DirEntry *e =
                        sys.gpm(gh).dir()->find(line.addr);
                    ASSERT_NE(e, nullptr) << "untracked GPM copy";
                    EXPECT_TRUE(e->hasGpm(cfg.localGpmOf(g)));
                }
            } else {
                const DirEntry *e = sys.gpm(home).dir()->find(line.addr);
                ASSERT_NE(e, nullptr) << "untracked copy";
                EXPECT_TRUE(e->hasGpm(g));
            }
        });
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomTraceTest, ::testing::ValuesIn([] {
        std::vector<Param> params;
        for (Protocol p :
             {Protocol::NoRemoteCache, Protocol::SwNonHier,
              Protocol::SwHier, Protocol::Nhcc, Protocol::Hmg,
              Protocol::Ideal})
            for (std::uint64_t seed : {1ull, 2ull, 3ull})
                params.push_back({p, seed});
        return params;
    }()),
    [](const ::testing::TestParamInfo<Param> &info) {
        std::string n = toString(info.param.protocol);
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n + "_s" + std::to_string(info.param.seed);
    });

/** Randomized message-passing placements at the protocol layer. */
class RandomMpTest : public ::testing::TestWithParam<Protocol>
{
};

TEST_P(RandomMpTest, MessagePassingHoldsForRandomPlacements)
{
    Rng rng(99);
    for (int trial = 0; trial < 15; ++trial) {
        DirectDrive d(GetParam());
        const Addr data = 0x000000;
        const Addr flag = 0x200000;
        d.place(data, static_cast<GpmId>(rng.below(4)));
        d.place(flag, static_cast<GpmId>(rng.below(4)));
        const SmId writer = static_cast<SmId>(rng.below(8));
        SmId reader = static_cast<SmId>(rng.below(8));

        // Pick the narrowest sufficient scope for the pair.
        const bool same_gpu =
            d.cfg().gpuOf(d.gpmOf(writer)) == d.cfg().gpuOf(d.gpmOf(reader));
        const Scope scope =
            same_gpu && rng.chance(0.5) ? Scope::Gpu : Scope::Sys;

        d.load(reader, data); // seed (possibly) stale copy
        Version v1 = d.store(writer, data);
        d.release(writer, scope);
        Version v2 = d.store(writer, flag);

        Version seen = 0;
        int spins = 0;
        while (seen < v2) {
            seen = d.load(reader, flag, scope);
            ASSERT_LT(++spins, 100);
        }
        d.acquire(reader, scope);
        EXPECT_GE(d.load(reader, data), v1)
            << "trial " << trial << " writer=" << writer
            << " reader=" << reader << " scope=" << toString(scope);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCoherent, RandomMpTest,
    ::testing::Values(Protocol::NoRemoteCache, Protocol::SwNonHier,
                      Protocol::SwHier, Protocol::Nhcc, Protocol::Hmg),
    [](const ::testing::TestParamInfo<Protocol> &info) {
        std::string n = toString(info.param);
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

} // namespace
} // namespace hmg
