/**
 * @file
 * Trace serialization tests: round-trip fidelity for hand-built and
 * generated traces, format stability, and malformed-input rejection.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "gpu/simulator.hh"
#include "test_system.hh"
#include "trace/io.hh"
#include "trace/workloads.hh"

namespace hmg
{
namespace
{

using trace::Trace;

void
expectEqualTraces(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.kernels.size(), b.kernels.size());
    EXPECT_EQ(a.name, b.name);
    for (std::size_t k = 0; k < a.kernels.size(); ++k) {
        ASSERT_EQ(a.kernels[k].ctas.size(), b.kernels[k].ctas.size());
        for (std::size_t c = 0; c < a.kernels[k].ctas.size(); ++c) {
            const auto &ca = a.kernels[k].ctas[c];
            const auto &cb = b.kernels[k].ctas[c];
            ASSERT_EQ(ca.warps.size(), cb.warps.size());
            for (std::size_t w = 0; w < ca.warps.size(); ++w) {
                const auto &wa = ca.warps[w].ops;
                const auto &wb = cb.warps[w].ops;
                ASSERT_EQ(wa.size(), wb.size());
                for (std::size_t i = 0; i < wa.size(); ++i) {
                    EXPECT_EQ(wa[i].type, wb[i].type);
                    EXPECT_EQ(wa[i].scope, wb[i].scope);
                    EXPECT_EQ(wa[i].addr, wb[i].addr);
                    EXPECT_EQ(wa[i].delay, wb[i].delay);
                    EXPECT_EQ(wa[i].acq, wb[i].acq);
                    EXPECT_EQ(wa[i].rel, wb[i].rel);
                }
            }
        }
    }
}

Trace
handBuilt()
{
    Trace t;
    t.name = "io-sample";
    trace::Kernel k;
    k.name = "k0";
    trace::Cta cta;
    trace::Warp w;
    w.ld(0x1a00, 2)
        .st(0x200000, 3, Scope::Sys, /*release=*/true)
        .atom(0x400080, Scope::Gpu, 4)
        .acqFence(Scope::Gpu, 1)
        .relFence(Scope::Sys, 0)
        .ld(0xdeadbe00, 7, Scope::Gpu, /*acquire=*/true);
    cta.warps.push_back(std::move(w));
    k.ctas.push_back(std::move(cta));
    t.kernels.push_back(std::move(k));
    return t;
}

TEST(TraceIo, RoundTripHandBuilt)
{
    Trace t = handBuilt();
    std::stringstream ss;
    trace::save(t, ss);
    Trace back = trace::load(ss);
    expectEqualTraces(t, back);
}

TEST(TraceIo, RoundTripGeneratedWorkload)
{
    Trace t = trace::workloads::make("mst", 0.05);
    std::stringstream ss;
    trace::save(t, ss);
    Trace back = trace::load(ss);
    expectEqualTraces(t, back);
    EXPECT_EQ(t.memOps(), back.memOps());
    EXPECT_EQ(t.footprintBytes(), back.footprintBytes());
}

TEST(TraceIo, ReloadedTraceSimulatesIdentically)
{
    Trace t = trace::workloads::make("RNN_FW", 0.05);
    std::stringstream ss;
    trace::save(t, ss);
    Trace back = trace::load(ss);

    SystemConfig cfg = testing::smallConfig(Protocol::Hmg);
    Simulator a(cfg), b(cfg);
    EXPECT_EQ(a.run(t).cycles, b.run(back).cycles);
}

TEST(TraceIo, FormatIsStable)
{
    std::stringstream ss;
    trace::save(handBuilt(), ss);
    const std::string text = ss.str();
    EXPECT_NE(text.find("hmgtrace 1"), std::string::npos);
    EXPECT_NE(text.find("name io-sample"), std::string::npos);
    EXPECT_NE(text.find("kernel k0 1"), std::string::npos);
    EXPECT_NE(text.find("warp 6"), std::string::npos);
    EXPECT_NE(text.find("l - 1a00 2 -"), std::string::npos);
    EXPECT_NE(text.find("s s 200000 3 r"), std::string::npos);
    EXPECT_NE(text.find("a g 400080 4 -"), std::string::npos);
    EXPECT_NE(text.find("l g deadbe00 7 a"), std::string::npos);
}

TEST(TraceIoDeath, RejectsMalformedInput)
{
    auto reject = [](const std::string &text) {
        std::stringstream ss(text);
        EXPECT_EXIT((void)trace::load(ss),
                    ::testing::ExitedWithCode(1), "");
    };
    reject("not-a-trace");
    reject("hmgtrace 2\nname x\n");
    reject("hmgtrace 1\nname x\nbogus\n");
    reject("hmgtrace 1\nname x\nkernel k 1\ncta 1\nwarp 1\nz - 0 0 -\n");
    reject("hmgtrace 1\nname x\n"); // no kernels
    // Header counts the stream cannot back: no allocation up front.
    reject("hmgtrace 1\nname x\nkernel k 18446744073709551615\n");
    reject("hmgtrace 1\nname x\nkernel k 1\ncta 1\nwarp 4000000000000\n"
           "l - 0 0 -\n");
}

TEST(TraceIoDeath, MissingFileIsFatal)
{
    EXPECT_EXIT((void)trace::loadFile("/nonexistent/trace.hmg"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(TraceIo, FileRoundTrip)
{
    Trace t = handBuilt();
    const std::string path = ::testing::TempDir() + "/io_test.hmgtrace";
    trace::saveFile(t, path);
    Trace back = trace::loadFile(path);
    expectEqualTraces(t, back);
}

} // namespace
} // namespace hmg
