/**
 * @file
 * Unit tests for the event-driven simulation kernel.
 *
 * The (tick, insertion-order) determinism contract is exercised three
 * ways: directly (SameTickFifo and the overflow-boundary tests), across
 * the timing wheel's window-advance machinery (far-future events take
 * the overflow path; peekNext jumps followed by earlier schedules take
 * the PDES-only spill and cursor pull-back), and differentially —
 * randomized programs, free-running and peek-driven, run on the Engine
 * and on a reference priority-queue implementation and must produce
 * identical execution sequences. SlabCapacityFollowsPeakLiveEvents
 * checks that event storage tracks live events, not the window.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "sim/engine.hh"

namespace hmg
{
namespace
{

/** Reference implementation: explicit (tick, seq) priority queue. */
class ReferenceEngine
{
  public:
    using Callback = std::function<void()>;

    Tick now() const { return now_; }
    void schedule(Tick delay, Callback cb)
    {
        scheduleAt(now_ + delay, std::move(cb));
    }
    void scheduleAt(Tick when, Callback cb)
    {
        queue_.push(Event{when, seq_++, std::move(cb)});
    }
    bool peekNext(Tick &when, std::uint64_t &seq) const
    {
        if (queue_.empty())
            return false;
        when = queue_.top().when;
        seq = queue_.top().seq;
        return true;
    }
    void run(Tick until = kTickMax)
    {
        while (!queue_.empty() && queue_.top().when <= until) {
            auto &top = const_cast<Event &>(queue_.top());
            now_ = top.when;
            Callback cb = std::move(top.cb);
            queue_.pop();
            cb();
        }
    }

  private:
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;
    };
    struct Later
    {
        bool operator()(const Event &a, const Event &b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };
    std::priority_queue<Event, std::vector<Event>, Later> queue_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
};

/**
 * A randomized program where events spawn 0-2 children at mixed
 * near-future and far-future (overflow-path) delays. Returns the
 * (tick, id) execution sequence.
 */
template <typename EngineT>
std::vector<std::pair<Tick, int>>
runRandomProgram(std::uint64_t seed)
{
    EngineT e;
    Rng rng(seed);
    std::vector<std::pair<Tick, int>> log;
    int next_id = 0;

    std::function<void(int)> fire = [&](int id) {
        log.emplace_back(e.now(), id);
        if (log.size() >= 4000)
            return;
        const auto kids = rng.below(3);
        for (std::uint64_t k = 0; k < kids; ++k) {
            const Tick d = rng.chance(0.15)
                               ? rng.range(15'000, 200'000)
                               : rng.below(1'200);
            const int child = next_id++;
            e.schedule(d, [&fire, child]() { fire(child); });
        }
    };
    for (int i = 0; i < 64; ++i) {
        const int id = next_id++;
        e.schedule(rng.below(50'000), [&fire, id]() { fire(id); });
    }
    e.run();
    return log;
}

/** What a peek-driven program observed: every peek and every execution. */
struct PeekRunLog
{
    std::vector<std::pair<Tick, std::uint64_t>> peeked;
    std::vector<std::pair<Tick, int>> ran;
    bool operator==(const PeekRunLog &) const = default;
};

/**
 * A sparse schedule driven the way the PDES merge and the LP windows
 * drive an engine: peekNext looks at the next pending event without
 * running it — which jumps the wheel window onto a far event — then
 * events land *before* that event, and a slice runs up to a random
 * bound. An early event below the jumped window makes the wheel spill
 * back to overflow; one inside the window but below the scan cursor
 * pulls the cursor back.
 */
template <typename EngineT>
PeekRunLog
runPeekJumpProgram(std::uint64_t seed)
{
    EngineT e;
    Rng rng(seed);
    PeekRunLog log;
    int next_id = 0;
    auto add = [&](Tick when) {
        const int id = next_id++;
        e.scheduleAt(when, [&log, &e, id]() {
            log.ran.emplace_back(e.now(), id);
        });
    };
    for (int i = 0; i < 32; ++i)
        add(rng.below(600'000));
    Tick when;
    std::uint64_t seq;
    while (e.peekNext(when, seq)) {
        log.peeked.emplace_back(when, seq);
        if (next_id < 800) {
            const Tick gap = when - e.now();
            for (std::uint64_t k = rng.below(4); k > 0 && gap > 0; --k)
                add(e.now() + rng.below(gap));
            if (rng.chance(0.3))
                add(when + rng.below(60'000));
        }
        e.run(e.now() + rng.below(2 * (when - e.now()) + 2));
    }
    return log;
}

TEST(Engine, StartsAtZero)
{
    Engine e;
    EXPECT_EQ(e.now(), 0u);
    EXPECT_TRUE(e.empty());
}

TEST(Engine, ExecutesInTimeOrder)
{
    Engine e;
    std::vector<int> order;
    e.schedule(30, [&]() { order.push_back(3); });
    e.schedule(10, [&]() { order.push_back(1); });
    e.schedule(20, [&]() { order.push_back(2); });
    e.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(e.now(), 30u);
}

TEST(Engine, SameTickFifo)
{
    Engine e;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        e.schedule(5, [&order, i]() { order.push_back(i); });
    e.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Engine, NestedScheduling)
{
    Engine e;
    int fired = 0;
    e.schedule(10, [&]() {
        ++fired;
        e.schedule(10, [&]() {
            ++fired;
            e.schedule(10, [&]() { ++fired; });
        });
    });
    e.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(e.now(), 30u);
}

TEST(Engine, RunUntilStopsEarly)
{
    Engine e;
    int fired = 0;
    e.schedule(10, [&]() { ++fired; });
    e.schedule(100, [&]() { ++fired; });
    e.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(e.pending(), 1u);
    e.run();
    EXPECT_EQ(fired, 2);
}

TEST(Engine, ScheduleAtAbsolute)
{
    Engine e;
    Tick seen = 0;
    e.scheduleAt(42, [&]() { seen = e.now(); });
    e.run();
    EXPECT_EQ(seen, 42u);
}

TEST(Engine, ZeroDelayRunsAtCurrentTick)
{
    Engine e;
    Tick seen = 1234;
    e.schedule(7, [&]() {
        e.schedule(0, [&]() { seen = e.now(); });
    });
    e.run();
    EXPECT_EQ(seen, 7u);
}

TEST(Engine, CountsEvents)
{
    Engine e;
    for (int i = 0; i < 25; ++i)
        e.schedule(i, []() {});
    e.run();
    EXPECT_EQ(e.eventsExecuted(), 25u);
}

TEST(EngineDeath, PastSchedulingPanics)
{
    Engine e;
    e.schedule(10, [&]() {
        EXPECT_DEATH(e.scheduleAt(5, []() {}), "assertion");
    });
    e.run();
}

// Regression for the determinism contract across the wheel/overflow
// boundary: an event scheduled while its tick was beyond the wheel
// window (overflow path) must still run before a same-tick event
// scheduled later, after the window advanced over that tick.
TEST(Engine, SameTickFifoAcrossOverflowBoundary)
{
    Engine e;
    std::vector<int> order;
    const Tick far = 40'000;   // beyond the wheel window at schedule time
    e.scheduleAt(far, [&]() { order.push_back(1); });
    e.scheduleAt(far - 2'000, [&]() {
        // By now the window has advanced; `far` is inside the wheel and
        // this same-tick event must append *behind* the overflow one.
        e.scheduleAt(far, [&]() { order.push_back(2); });
    });
    e.scheduleAt(far, [&]() { order.push_back(3); });
    e.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Engine, ManySameTickEventsAcrossOverflowStayFifo)
{
    Engine e;
    std::vector<int> order;
    const Tick far = 1'000'000;
    for (int i = 0; i < 1000; ++i)
        e.scheduleAt(far, [&order, i]() { order.push_back(i); });
    e.run();
    ASSERT_EQ(order.size(), 1000u);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(order[i], i);
    EXPECT_EQ(e.now(), far);
}

TEST(Engine, SparseFarJumps)
{
    Engine e;
    std::vector<Tick> seen;
    for (Tick t : {Tick{3}, Tick{70'000}, Tick{1} << 20, Tick{1} << 34})
        e.scheduleAt(t, [&seen, &e]() { seen.push_back(e.now()); });
    EXPECT_EQ(e.pending(), 4u);
    e.run();
    EXPECT_EQ(seen, (std::vector<Tick>{3, 70'000, Tick{1} << 20,
                                       Tick{1} << 34}));
    EXPECT_TRUE(e.empty());
}

// peekNext jumps the window onto a far event without running it (as
// the PDES merge does); an event then scheduled below that window must
// still run first. The wheel spills back to overflow and the window
// re-anchors at the early event.
TEST(Engine, PeekJumpThenEarlierScheduleSpillsWheel)
{
    Engine e;
    std::vector<int> order;
    e.scheduleAt(100'000, [&order]() { order.push_back(0); });
    e.scheduleAt(100'005, [&order]() { order.push_back(1); });
    Tick when;
    std::uint64_t seq;
    ASSERT_TRUE(e.peekNext(when, seq));
    EXPECT_EQ(when, 100'000u);
    EXPECT_EQ(seq, 0u);
    e.scheduleAt(50, [&order]() { order.push_back(2); });
    e.scheduleAt(100'005, [&order]() { order.push_back(3); });
    ASSERT_TRUE(e.peekNext(when, seq));
    EXPECT_EQ(when, 50u);
    EXPECT_EQ(seq, 2u);
    e.run();
    EXPECT_EQ(order, (std::vector<int>{2, 0, 1, 3}));
    EXPECT_EQ(e.now(), 100'005u);
}

// peekNext moves the scan cursor up to the next event; an event then
// scheduled inside the window but below the cursor must pull the
// cursor back instead of being found only after the later one.
TEST(Engine, EarlierScheduleAfterPeekRewindsCursor)
{
    Engine e;
    std::vector<int> order;
    e.scheduleAt(5'000, [&order]() { order.push_back(0); });
    Tick when;
    std::uint64_t seq;
    ASSERT_TRUE(e.peekNext(when, seq));
    EXPECT_EQ(when, 5'000u);
    e.scheduleAt(1'000, [&order]() { order.push_back(1); });
    ASSERT_TRUE(e.peekNext(when, seq));
    EXPECT_EQ(when, 1'000u);
    EXPECT_EQ(seq, 1u);
    e.run();
    EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(Engine, RunUntilAcrossOverflowWindow)
{
    Engine e;
    int fired = 0;
    e.scheduleAt(100'000, [&]() { ++fired; });
    e.scheduleAt(200'000, [&]() { ++fired; });
    e.run(150'000);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(e.pending(), 1u);
    e.run();
    EXPECT_EQ(fired, 2);
}

// Event storage follows the number of live events, not the window or
// the per-tick bursts: bursts at every tick of three wheel windows, then
// a far jump through the overflow list, never grow the slab past the
// peak of live events rounded up to one block.
TEST(Engine, SlabCapacityFollowsPeakLiveEvents)
{
    constexpr Tick kWindow = Tick{1} << 14; // the wheel's window
    constexpr Tick kFar = Tick{1} << 30;
    constexpr std::size_t kBlock = Engine::kSlabBlockEvents;
    Engine e;
    std::size_t peak_live = 0;
    std::size_t max_capacity = 0;
    std::uint64_t scheduled = 0;
    auto note = [&]() {
        // The executing event keeps its slot until it returns.
        peak_live = std::max(peak_live, e.pending() + 1);
        max_capacity = std::max(max_capacity, e.slabCapacity());
    };
    std::function<void()> tick = [&]() {
        const Tick t = e.now();
        const Tick burst_at = t < 3 * kWindow ? t + 40 + t % 23 : t + kFar;
        const std::uint64_t burst = t < 3 * kWindow ? 1 + t % 17 : 600;
        for (std::uint64_t k = 0; k < burst; ++k) {
            e.scheduleAt(burst_at, [&note]() { note(); });
            ++scheduled;
            note();
        }
        if (t < 3 * kWindow)
            e.scheduleAt(t + 1, [&tick]() { tick(); });
    };
    e.scheduleAt(0, [&tick]() { tick(); });
    e.run();
    EXPECT_EQ(e.eventsExecuted(), scheduled + 3 * kWindow + 1);
    EXPECT_GE(e.now(), 3 * kWindow + kFar);
    EXPECT_EQ(max_capacity, e.slabCapacity());
    EXPECT_GE(e.slabCapacity(), peak_live);
    EXPECT_LE(e.slabCapacity(), (peak_live + kBlock - 1) / kBlock * kBlock);
}

// Closures up to Engine::Callback's inline capacity must not touch the
// heap; bigger ones still work via the fallback.
TEST(Engine, CallbackInlineStorage)
{
    struct Small { unsigned char pad[96]; };
    struct Big { unsigned char pad[512]; };
    Engine::Callback small_cb([s = Small{}]() { (void)s; });
    Engine::Callback big_cb([b = Big{}]() { (void)b; });
    EXPECT_TRUE(small_cb.isInline());
    EXPECT_FALSE(big_cb.isInline());

    Engine e;
    int fired = 0;
    e.schedule(1, [&fired, s = Small{}]() { (void)s; ++fired; });
    e.schedule(2, [&fired, b = Big{}]() { (void)b; ++fired; });
    e.run();
    EXPECT_EQ(fired, 2);
}

// The differential check: Engine must replay the exact execution
// sequence of the reference (tick, seq) priority queue on randomized
// dynamically scheduling programs, and on peek-driven programs that
// schedule below a jumped window (spill) or below the scan cursor.
TEST(Engine, MatchesReferenceEngineOnRandomPrograms)
{
    for (std::uint64_t seed : {1ull, 42ull, 0xfeedu * 1ull}) {
        const auto expected = runRandomProgram<ReferenceEngine>(seed);
        const auto actual = runRandomProgram<Engine>(seed);
        ASSERT_FALSE(expected.empty());
        EXPECT_EQ(actual, expected) << "seed " << seed;

        const auto peek_expected = runPeekJumpProgram<ReferenceEngine>(seed);
        const auto peek_actual = runPeekJumpProgram<Engine>(seed);
        ASSERT_GT(peek_expected.ran.size(), 100u);
        EXPECT_EQ(peek_actual, peek_expected) << "seed " << seed;
    }
}

} // namespace
} // namespace hmg
