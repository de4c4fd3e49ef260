/**
 * @file
 * Concurrent (non-quiesced) litmus tests: unlike tests/litmus_test.cc,
 * which runs the engine to quiescence between steps, these interleave a
 * polling reader with a live writer inside one engine run — the regime
 * where in-flight invalidations, MSHR fills and release-marker drains
 * actually race. Parameterized over every coherent protocol and over
 * the release fan-out implementations.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "test_system.hh"

namespace hmg
{
namespace
{

using testing::DirectDrive;
using testing::smallConfig;

constexpr Addr kData = 0x000000;
constexpr Addr kData2 = 0x400000;
constexpr Addr kFlag = 0x200000;

struct Param
{
    Protocol protocol;
    bool hier_fanout;
};

class ConcurrentMp : public ::testing::TestWithParam<Param>
{
  protected:
    SystemConfig
    cfg() const
    {
        SystemConfig c = smallConfig(GetParam().protocol);
        c.hierarchicalReleaseFanout = GetParam().hier_fanout;
        return c;
    }
};

/**
 * Writer publishes two data lines then a flag with a release, all
 * issued asynchronously. The reader polls the flag with acquire-loads
 * every few cycles *while the writer's messages are in flight*; as soon
 * as it observes the flag, it acquires and re-reads the data lines,
 * which must be at least as new as the published versions.
 */
TEST_P(ConcurrentMp, ReaderRacingWriterSeesPublishedData)
{
    for (int trial = 0; trial < 10; ++trial) {
        DirectDrive d(GetParam().protocol, cfg());
        const SmId writer = 0;                      // GPM0 / GPU0
        const SmId reader = trial % 2 ? 4 : 6;      // GPU1
        const Scope scope = Scope::Sys;
        d.place(kData, 3);
        d.place(kData2, 1);
        d.place(kFlag, 2);

        // Seed stale copies everywhere the reader might look.
        d.load(reader, kData);
        d.load(reader, kData2);

        // Writer sequence, fully asynchronous.
        Version v1 = d.storeAsync(writer, kData);
        Version v2 = d.storeAsync(writer, kData2);
        Version vf = 0;
        bool flag_published = false;
        d.sys.model().release(d.acc(writer, 0, scope),
                              [&]() {
            vf = d.sys.memory().allocateVersion();
            d.sys.tracker().issued(writer);
            d.sys.model().store(d.acc(writer, kFlag, scope), vf, []() {},
                                [&]() { flag_published = true; });
        });

        // Reader: poll the flag every 50 cycles until it sees the new
        // version, then acquire and check the data. What it saw is one
        // struct, so a load completion's captures fit its buffer.
        struct Seen
        {
            std::optional<Version> data1, data2;
            bool done = false;
        } seen;
        std::function<void()> poll = [&]() {
            d.sys.model().load(
                d.acc(reader, kFlag, scope), [&](Version fv) {
                if (vf != 0 && fv >= vf) {
                    d.sys.model().acquire(d.acc(reader, 0, scope),
                                          [&]() {
                        d.sys.model().load(d.acc(reader, kData),
                                           [&](Version x) {
                            seen.data1 = x;
                            d.sys.model().load(d.acc(reader, kData2),
                                               [&](Version y) {
                                seen.data2 = y;
                                seen.done = true;
                            });
                        });
                    });
                } else if (!seen.done) {
                    d.engine().schedule(50, poll);
                }
            });
        };
        d.engine().schedule(1, poll);
        d.engine().run();

        ASSERT_TRUE(seen.done) << "reader never observed the flag";
        ASSERT_TRUE(flag_published);
        EXPECT_GE(*seen.data1, v1) << "trial " << trial;
        EXPECT_GE(*seen.data2, v2) << "trial " << trial;
    }
}

/**
 * Same shape at `.gpu` scope between two GPMs of one GPU, with the data
 * homed on a *remote* GPU so the hierarchical protocols exercise the
 * GPU-home path under the race.
 */
TEST_P(ConcurrentMp, GpuScopeRaceWithinGpu)
{
    DirectDrive d(GetParam().protocol, cfg());
    const SmId writer = 0; // GPM0
    const SmId reader = 2; // GPM1, same GPU
    d.place(kData, 3);     // homed on GPU1
    d.place(kFlag, 1);

    d.load(reader, kData); // stale seed

    Version v1 = d.storeAsync(writer, kData);
    Version vf = 0;
    d.sys.model().release(d.acc(writer, 0, Scope::Gpu), [&]() {
        vf = d.sys.memory().allocateVersion();
        d.sys.tracker().issued(writer);
        d.sys.model().store(d.acc(writer, kFlag, Scope::Gpu), vf,
                            []() {}, []() {});
    });

    bool done = false;
    Version seen = 0;
    std::function<void()> poll = [&]() {
        d.sys.model().load(d.acc(reader, kFlag, Scope::Gpu),
                           [&](Version fv) {
            if (vf != 0 && fv >= vf) {
                d.sys.model().acquire(d.acc(reader, 0, Scope::Gpu),
                                      [&]() {
                    d.sys.model().load(d.acc(reader, kData),
                                       [&](Version x) {
                        seen = x;
                        done = true;
                    });
                });
            } else if (!done) {
                d.engine().schedule(37, poll);
            }
        });
    };
    d.engine().schedule(1, poll);
    d.engine().run();

    ASSERT_TRUE(done);
    EXPECT_GE(seen, v1);
}

/**
 * A writer hammering one sector while a reader polls another line of
 * the *same* sector: false-sharing invalidations must never let the
 * reader's own line go backwards in version.
 */
TEST_P(ConcurrentMp, FalseSharingNeverRewindsVersions)
{
    DirectDrive d(GetParam().protocol, cfg());
    d.place(kData, 0);
    const Addr line_a = kData;         // writer's line
    const Addr line_b = kData + 128;   // reader's line, same 512B sector

    Version vb = d.store(5, line_b);

    // Writer posts a stream of stores to line_a.
    for (int i = 0; i < 8; ++i)
        d.storeAsync(1, line_a);

    // Reader polls line_b concurrently; versions must be monotonic and
    // never below vb.
    std::vector<Version> observed;
    int polls = 0;
    std::function<void()> poll = [&]() {
        d.sys.model().load(d.acc(6, line_b), [&](Version v) {
            observed.push_back(v);
            if (++polls < 12)
                d.engine().schedule(29, poll);
        });
    };
    d.engine().schedule(1, poll);
    d.engine().run();

    ASSERT_EQ(observed.size(), 12u);
    for (std::size_t i = 0; i < observed.size(); ++i) {
        EXPECT_GE(observed[i], vb);
        if (i > 0) {
            EXPECT_GE(observed[i], observed[i - 1]) << "non-monotonic";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Coherent, ConcurrentMp, ::testing::ValuesIn([] {
        std::vector<Param> ps;
        for (Protocol p :
             {Protocol::NoRemoteCache, Protocol::SwNonHier,
              Protocol::SwHier, Protocol::Nhcc, Protocol::Hmg})
            ps.push_back({p, false});
        ps.push_back({Protocol::Hmg, true}); // relayed release fan-out
        return ps;
    }()),
    [](const ::testing::TestParamInfo<Param> &info) {
        std::string n = toString(info.param.protocol);
        for (auto &c : n)
            if (c == '-')
                c = '_';
        if (info.param.hier_fanout)
            n += "_relayed";
        return n;
    });

} // namespace
} // namespace hmg
