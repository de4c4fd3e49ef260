/**
 * @file
 * Golden statistics: each cell runs one small workload end to end and
 * checks an FNV-1a digest over its whole stats map, so any change to a
 * model statistic, message count or engine event count fails here.
 *
 * The cells cover every coherence model (the six protocols on mst and
 * lstm) and the knobs that switch on model paths of their own: the
 * node tier (4 GPUs x 2 GPMs x 2 nodes), write-back L2s, and the
 * relayed release round with clean-eviction downgrades at 1-line
 * directory granularity.
 *
 * The digest is the one hostbench checks its cells against. Re-record a
 * digest only for an intended change to the model, and name that
 * change in CHANGES.md.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "gpu/simulator.hh"
#include "trace/workloads.hh"

namespace hmg
{
namespace
{

/** FNV-1a over every (name, value bits) pair of the stats map. */
std::uint64_t
digest(const StatRecorder &stats)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const void *p, std::size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    };
    for (const auto &[name, value] : stats.all()) {
        mix(name.data(), name.size() + 1);
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        mix(&bits, sizeof bits);
    }
    return h;
}

/** Model paths a cell switches on beyond the default 4x4 machine. */
enum class Variant
{
    Default,
    TwoNodes,    //!< 4 GPUs x 2 GPMs x 2 nodes: the node-home tier
    WriteBack,   //!< write-back L2s
    HierRelease, //!< relayed .sys releases, downgrades, 1-line entries
};

struct Cell
{
    const char *workload;
    Protocol protocol;
    Variant variant;
    std::uint64_t digest;
};

constexpr double kScale = 0.02;

const Cell kCells[] = {
    {"mst", Protocol::NoRemoteCache, Variant::Default,
     0x222af0928f4fc557},
    {"mst", Protocol::SwNonHier, Variant::Default,
     0xf5daa1975581a9c6},
    {"mst", Protocol::SwHier, Variant::Default,
     0x0889166d02b0f7f4},
    {"mst", Protocol::Nhcc, Variant::Default,
     0x30155cc392c13382},
    {"mst", Protocol::Hmg, Variant::Default,
     0xb06e1f5a8ab91c76},
    {"mst", Protocol::Ideal, Variant::Default,
     0x55757ce370303321},
    {"lstm", Protocol::NoRemoteCache, Variant::Default,
     0x38640bcd4de40ddd},
    {"lstm", Protocol::SwNonHier, Variant::Default,
     0x3b42b960a4f75aaf},
    {"lstm", Protocol::SwHier, Variant::Default,
     0x90fc955f411322c0},
    {"lstm", Protocol::Nhcc, Variant::Default,
     0xf7383f3600e35c1f},
    {"lstm", Protocol::Hmg, Variant::Default,
     0xd9e13c826f645b13},
    {"lstm", Protocol::Ideal, Variant::Default,
     0x9f417f4707e8cdcf},
    {"mst", Protocol::Hmg, Variant::TwoNodes,
     0x0e5b00ccdb4f1c6d},
    {"mst", Protocol::SwHier, Variant::TwoNodes,
     0x3516d53e017c4c4d},
    {"mst", Protocol::Nhcc, Variant::WriteBack,
     0x50211b6a2810ab64},
    {"mst", Protocol::Hmg, Variant::WriteBack,
     0xb5f0ff011af01fcb},
    {"mst", Protocol::Hmg, Variant::HierRelease,
     0x5e983cfdec764a34},
};

std::string
describe(const Cell &c)
{
    static const char *const variants[] = {"", " 2x2x2", " write-back",
                                           " hier-release+downgrade"};
    return std::string(c.workload) + " " + toString(c.protocol) +
           variants[static_cast<int>(c.variant)];
}

SystemConfig
configFor(const Cell &c)
{
    SystemConfig cfg;
    cfg.protocol = c.protocol;
    switch (c.variant) {
      case Variant::Default:
        break;
      case Variant::TwoNodes:
        cfg.numNodes = 2;
        cfg.numGpus = 4;
        cfg.gpmsPerGpu = 2;
        break;
      case Variant::WriteBack:
        cfg.l2WriteBack = true;
        break;
      case Variant::HierRelease:
        cfg.hierarchicalReleaseFanout = true;
        cfg.sharerDowngrade = true;
        cfg.dirLinesPerEntry = 1;
        break;
    }
    return cfg;
}

TEST(GoldenStats, EveryCellMatchesItsRecordedDigest)
{
    for (const Cell &c : kCells) {
        const auto trace = trace::workloads::make(c.workload, kScale);
        Simulator sim(configFor(c));
        const std::uint64_t got = digest(sim.run(trace).stats);
        char hex[24];
        std::snprintf(hex, sizeof hex, "0x%016" PRIx64, got);
        EXPECT_EQ(got, c.digest)
            << describe(c) << ": stats digest is now " << hex
            << ". Re-record it only for an intended model change, and "
               "name that change in CHANGES.md.";
    }
}

} // namespace
} // namespace hmg
