/**
 * @file
 * Unit tests for RateSerializer, the exact-rational wire-occupancy model
 * behind every bandwidth-limited resource: NoC ports, DRAM channels and
 * SM issue ports. DRAM's added access latency is covered in mem_test.
 */

#include <gtest/gtest.h>

#include "sim/serializer.hh"

namespace hmg
{
namespace
{

TEST(RateSerializer, SerializationAccumulates)
{
    RateSerializer w(64.0);
    // Three 128-byte messages at 64 B/cyc: each occupies 2 cycles.
    EXPECT_EQ(w.serialize(0, 128), 2u);
    EXPECT_EQ(w.serialize(0, 128), 4u);
    EXPECT_EQ(w.serialize(0, 128), 6u);
    EXPECT_EQ(w.bytesTotal(), 384u);
    EXPECT_DOUBLE_EQ(w.busyCycles(), 6.0);
}

TEST(RateSerializer, FractionalBandwidth)
{
    RateSerializer w(1.5);
    // 3 bytes at 1.5 B/cyc = 2 cycles each, exact accumulation.
    EXPECT_EQ(w.serialize(0, 3), 2u);
    EXPECT_EQ(w.serialize(0, 3), 4u);
    EXPECT_EQ(w.serialize(0, 3), 6u);
    // One byte ends mid-cycle: busyUntil() is the ceiling, freeCycle()
    // the whole-cycle part of the exact free time.
    w.serialize(0, 1);
    EXPECT_EQ(w.busyUntil(), 7u);
    EXPECT_EQ(w.freeCycle(), 6u);
}

TEST(RateSerializer, IdleGapResets)
{
    RateSerializer w(128.0);
    EXPECT_EQ(w.serialize(0, 128), 1u);
    // The wire idles from tick 1 to 100: serialization restarts there.
    EXPECT_EQ(w.serialize(100, 128), 101u);
    // An idle gap also drops a fractional remainder: the wire was idle
    // at the whole-cycle tick the next message starts.
    RateSerializer f(1.5);
    EXPECT_EQ(f.serialize(0, 1), 1u); // free at 2/3
    EXPECT_EQ(f.serialize(5, 3), 7u);
}

TEST(RateSerializer, SerializeAtChainsFutureTime)
{
    RateSerializer w(128.0);
    EXPECT_EQ(w.serialize(1000, 128), 1001u);
    // A later message queued behind the first.
    EXPECT_EQ(w.serialize(1000, 128), 1002u);
}

TEST(RateSerializer, BusyUntilTracksOccupancy)
{
    RateSerializer w(1.0);
    w.serialize(0, 10);
    EXPECT_EQ(w.busyUntil(), 10u);
    w.serialize(0, 5);
    EXPECT_EQ(w.busyUntil(), 15u);
}

// Completion ticks never run backwards, whatever the message sizes or
// ready times, so delivery in serialization order is FIFO.
TEST(RateSerializer, CompletionsFifoAndMonotonic)
{
    RateSerializer w(3.7);
    Tick prev = 0;
    for (int i = 0; i < 200; ++i) {
        const Tick earliest = static_cast<Tick>((i * 7) % 23);
        const Tick done = w.serialize(earliest, 1 + i % 7);
        EXPECT_GE(done, prev);
        EXPECT_GT(done, earliest);
        prev = done;
    }
}

// Occupancy accounting is exact integer arithmetic: 10M back-to-back
// messages at a fractional bandwidth land on the closed-form tick with
// zero drift (a double accumulator drifts here).
TEST(RateSerializer, TenMillionMessagesExactNoDrift)
{
    RateSerializer w(1.5);
    constexpr std::uint64_t kMessages = 10'000'000;
    for (std::uint64_t i = 0; i < kMessages; ++i) {
        // 3 bytes at 1.5 B/cyc = exactly 2 cycles each, forever.
        const Tick done = w.serialize(0, 3);
        ASSERT_EQ(done, 2 * (i + 1)) << "drift after " << i << " messages";
    }
    EXPECT_EQ(w.busyUntil(), 2 * kMessages);
}

// n messages of B bytes must occupy exactly as long as one message of
// n*B bytes: a drift detector that needs no knowledge of the internal
// bandwidth representation.
TEST(RateSerializer, ManySmallMessagesEqualOneBigMessage)
{
    constexpr std::uint64_t kMessages = 10'000'000;
    constexpr std::uint32_t kBytes = 128;
    // Non-dyadic bandwidth (the Table II inter-GPU port figure) so the
    // per-message occupancy has an awkward fractional part.
    RateSerializer many(153.6);
    RateSerializer one(153.6);
    Tick prev = 0;
    for (std::uint64_t i = 0; i < kMessages; ++i) {
        const Tick done = many.serialize(0, kBytes);
        ASSERT_GE(done, prev) << "completion regressed at message " << i;
        prev = done;
    }
    one.serialize(0, kMessages * kBytes);
    EXPECT_EQ(many.busyUntil(), one.busyUntil());
}

} // namespace
} // namespace hmg
