/**
 * @file
 * Workload-suite tests: every Table III generator builds, is
 * deterministic, has a plausible shape (multiple dependent kernels,
 * non-trivial footprint), and the registry is consistent. Parameterized
 * over all 20 suite members.
 */

#include <gtest/gtest.h>

#include <set>

#include "trace/workloads.hh"

namespace hmg
{
namespace
{

namespace wl = trace::workloads;

class WorkloadTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadTest, BuildsWithOps)
{
    auto t = wl::make(GetParam(), 0.05);
    EXPECT_EQ(t.name, GetParam());
    EXPECT_GT(t.memOps(), 100u);
    EXPECT_GT(t.footprintBytes(), 0u);
}

TEST_P(WorkloadTest, Deterministic)
{
    auto a = wl::make(GetParam(), 0.05, 3);
    auto b = wl::make(GetParam(), 0.05, 3);
    ASSERT_EQ(a.kernels.size(), b.kernels.size());
    EXPECT_EQ(a.memOps(), b.memOps());
    EXPECT_EQ(a.footprintBytes(), b.footprintBytes());
    // Spot-check the first compute kernel's first warp ops match.
    const auto &wa = a.kernels[1].ctas[0].warps[0].ops;
    const auto &wb = b.kernels[1].ctas[0].warps[0].ops;
    ASSERT_EQ(wa.size(), wb.size());
    for (std::size_t i = 0; i < wa.size(); ++i) {
        EXPECT_EQ(wa[i].addr, wb[i].addr);
        EXPECT_EQ(wa[i].type, wb[i].type);
    }
}

TEST_P(WorkloadTest, HasDependentKernels)
{
    auto t = wl::make(GetParam(), 0.05);
    // Placement kernel + at least two compute kernels.
    EXPECT_GE(t.kernels.size(), 3u);
}

TEST_P(WorkloadTest, ScaleGrowsOps)
{
    // `scale` multiplies per-warp iteration counts.
    auto small = wl::make(GetParam(), 0.1);
    auto large = wl::make(GetParam(), 1.0);
    EXPECT_GT(large.memOps(), small.memOps());
}

TEST_P(WorkloadTest, GeneratesAtTinyScale)
{
    // Arrays with fewer lines than CTAs still give each CTA a slice of
    // at least one line to cycle over.
    auto t = wl::make(GetParam(), 0.001);
    EXPECT_GT(t.memOps(), 0u);
}

TEST_P(WorkloadTest, EnoughCtasToSpreadOverGpms)
{
    auto t = wl::make(GetParam(), 0.05);
    for (std::size_t k = 1; k < t.kernels.size(); ++k)
        EXPECT_GE(t.kernels[k].ctas.size(), 16u) << t.kernels[k].name;
}

TEST_P(WorkloadTest, RegistryEntryConsistent)
{
    const auto &i = wl::info(GetParam());
    EXPECT_EQ(i.name, GetParam());
    EXPECT_GT(i.paperFootprintMB, 0.0);
    EXPECT_FALSE(i.fullName.empty());
    EXPECT_FALSE(i.category.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Suite, WorkloadTest, ::testing::ValuesIn([] {
        std::vector<std::string> names;
        for (const auto &i : wl::list())
            names.push_back(i.name);
        return names;
    }()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string n = info.param;
        for (auto &c : n)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

TEST(WorkloadRegistry, TwentyMembers)
{
    EXPECT_EQ(wl::list().size(), 20u);
    std::set<std::string> names;
    for (const auto &i : wl::list())
        names.insert(i.name);
    EXPECT_EQ(names.size(), 20u);
}

TEST(WorkloadRegistry, SyncStylesMatchPaper)
{
    // Section VI: "cuSolver, namd2.10, and mst use .gpu-scoped
    // synchronization explicitly".
    EXPECT_EQ(wl::info("cusolver").syncStyle, ".gpu-scoped");
    EXPECT_EQ(wl::info("namd2.10").syncStyle, ".gpu-scoped");
    EXPECT_EQ(wl::info("mst").syncStyle, ".gpu-scoped");
    EXPECT_EQ(wl::info("pathfinder").syncStyle, "bulk");
}

TEST(WorkloadRegistry, GpuScopedWorkloadsCarryScopedOps)
{
    for (const char *name : {"cusolver", "namd2.10", "mst"}) {
        auto t = wl::make(name, 0.05);
        bool found = false;
        for (const auto &k : t.kernels)
            for (const auto &c : k.ctas)
                for (const auto &w : c.warps)
                    for (const auto &op : w.ops)
                        if (op.scope == Scope::Gpu)
                            found = true;
        EXPECT_TRUE(found) << name;
    }
}

TEST(WorkloadRegistryDeath, UnknownNameIsFatal)
{
    EXPECT_DEATH((void)wl::make("nonesuch"), "unknown workload");
    EXPECT_DEATH((void)wl::info("nonesuch"), "unknown workload");
}

} // namespace
} // namespace hmg
