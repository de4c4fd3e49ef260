/**
 * @file
 * The event-driven simulation kernel.
 *
 * A single Engine owns simulated time. Components schedule closures at
 * future ticks; the engine executes them in (tick, insertion-order)
 * order, which makes simulation results fully deterministic.
 *
 * The pending-event set is a timing wheel specialized for the schedule
 * distribution of cache/NoC events, which is overwhelmingly near-future
 * (hit latencies, hop latencies, DRAM and queueing delays — almost all
 * within a few thousand cycles of `now`):
 *
 *  - one bucket per tick over a 2^14-cycle window; scheduling is an
 *    append to the bucket's vector, execution walks a 2 KB occupancy
 *    bitmap to the next populated tick;
 *  - events beyond the window go to an overflow list that is swept into
 *    the wheel each time the wheel drains (at most once per 2^14 ticks,
 *    or directly to the next populated tick when the schedule is
 *    sparse);
 *  - callbacks are SmallCallback (sim/callback.hh), so the common
 *    capture sizes — including the protocol engines' fattest data-path
 *    continuations — are stored inline in the bucket vectors.
 *
 * Steady state does zero heap allocations per event: bucket vectors are
 * cleared but keep their capacity, and inline callbacks never touch the
 * heap. The determinism contract and its proof obligations are spelled
 * out in DESIGN.md ("Event kernel & parallel sweeps").
 */

#ifndef HMG_SIM_ENGINE_HH
#define HMG_SIM_ENGINE_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "sim/callback.hh"

namespace hmg
{

/** Discrete-event simulation engine. */
class Engine
{
  public:
    /**
     * Inline capacity of 192 bytes covers every closure the protocol
     * engines schedule today (the fattest captures `this` + MemAccess +
     * two ids + a Version + two 64-byte SmallCallback completions =
     * 184 bytes).
     */
    using Callback = SmallCallback<192>;

    Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Current simulated time in cycles. */
    Tick now() const { return now_; }

    /**
     * The engine currently executing events on this thread, or nullptr
     * outside run()/runOne(). Partitioned (PDES) runs use this to route
     * dynamically-scoped scheduling to the logical process that is
     * executing, so code that says "schedule on the engine" keeps
     * working unchanged with one engine per LP.
     */
    static Engine *current() { return tl_current; }

    /**
     * Redirect the insertion-order counter that stamps every scheduled
     * event. The deterministic LP merge shares one counter across all
     * per-LP engines so the global (tick, insertion-order) total order
     * is exactly the order a single serial wheel would have produced.
     * Pass nullptr to restore the engine's private counter.
     */
    void
    setSeqSource(std::uint64_t *src)
    {
        seq_src_ = src ? src : &own_seq_;
    }

    /**
     * Advance `now` to `t` without executing anything. The deterministic
     * LP merge calls this on every engine before running the globally
     * earliest event, so cross-engine schedules and ready-time
     * comparisons observe the same clock a serial run would. `t` must
     * not exceed the engine's earliest pending event.
     */
    void
    syncNow(Tick t)
    {
        if (t > now_)
            now_ = t;
    }

    /**
     * Tick and insertion-order stamp of the earliest pending event,
     * without executing it. @return false when the queue is empty.
     */
    bool peekNext(Tick &when, std::uint64_t &seq);

    /**
     * When enabled, inserting from a thread that is currently executing
     * a *different* engine panics. The relaxed PDES mode turns this on:
     * cross-LP effects must travel through boundary channels or posted
     * messages, never by direct scheduling into another LP's wheel.
     */
    void setAffinityChecking(bool on) { affine_ = on; }

    /**
     * Schedule `f` to run `delay` cycles from now. Templated so the
     * callable is constructed directly in its bucket slot — a closure
     * reaches the queue with zero intermediate moves.
     */
    template <typename F,
              typename = std::enable_if_t<
                  std::is_constructible_v<Callback, F &&>>>
    void
    schedule(Tick delay, F &&f)
    {
        insert(now_ + delay, std::forward<F>(f));
    }

    /** Schedule `f` at absolute tick `when` (must be >= now). */
    template <typename F,
              typename = std::enable_if_t<
                  std::is_constructible_v<Callback, F &&>>>
    void
    scheduleAt(Tick when, F &&f)
    {
        insert(when, std::forward<F>(f));
    }

    /** True when no events remain. */
    bool empty() const { return size_ == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return size_; }

    /** Execute the next event, if any. @return false when queue empty. */
    bool runOne();

    /**
     * Run until the queue drains or simulated time would pass `until`.
     * @return the final simulated time.
     */
    Tick run(Tick until = kTickMax);

    /** Total events executed over the engine's lifetime. */
    std::uint64_t eventsExecuted() const { return executed_; }

  private:
    /** log2 of the wheel window; one bucket per tick. */
    static constexpr std::size_t kWheelBits = 14;
    static constexpr std::size_t kWheelSize = std::size_t{1} << kWheelBits;
    static constexpr std::size_t kWheelMask = kWheelSize - 1;
    static constexpr std::size_t kBitmapWords = kWheelSize / 64;

    struct Event
    {
        // Constructed in place by emplace_back, directly from the
        // caller's raw callable — no intermediate Callback moves.
        Event() = default;
        template <typename F>
        Event(Tick w, std::uint64_t s, F &&f)
            : when(w), seq(s), cb(std::forward<F>(f))
        {
        }

        Tick when = 0;
        /** Insertion-order stamp; ties on `when` break by `seq`. */
        std::uint64_t seq = 0;
        Callback cb;
    };

    /**
     * Events for one tick, in insertion order; `head` is the next
     * unexecuted event, so same-tick events scheduled during execution
     * simply append behind it. clear() keeps the vector's capacity.
     */
    struct Bucket
    {
        std::vector<Event> events;
        std::uint32_t head = 0;
    };

    /**
     * Common schedule path; the callable is emplaced straight into its
     * bucket or overflow slot. Defined here so scheduling inlines into
     * the protocol engines' hot loops (it is a handful of instructions
     * plus an append).
     */
    template <typename F>
    void
    insert(Tick when, F &&f)
    {
        hmg_assert(when >= now_);
        // The window-jump arithmetic needs kWheelSize of headroom below
        // the kTickMax sentinel; at 1.3 GHz that bound is ~450 years of
        // simulated time away.
        hmg_assert(when < kTickMax - kWheelSize);
        // Cross-LP effects must not schedule directly into another LP's
        // wheel while its worker thread may be running (see
        // setAffinityChecking).
        hmg_assert(!affine_ || tl_current == nullptr || tl_current == this);
        Event *slot;
        if (when < wheel_limit_ && when >= wheel_limit_ - kWheelSize) {
            const std::size_t b = when & kWheelMask;
            slot = &buckets_[b].events.emplace_back(when, (*seq_src_)++,
                                                    std::forward<F>(f));
            occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
            ++wheel_count_;
            // An LP whose own schedule is sparse can have its scan
            // cursor far ahead of merged time when a boundary delivery
            // lands; pull the cursor back so the bitmap scan visits the
            // new event. Serial runs never take this branch (inserts
            // are always at or after the cursor).
            if (when < search_from_)
                search_from_ = when;
        } else {
            overflow_min_ = std::min(overflow_min_, when);
            slot = &overflow_.emplace_back(when, (*seq_src_)++,
                                           std::forward<F>(f));
        }
        hmg_assert(slot->cb);
        ++size_;
    }

    /** Re-home one already-queued event during an overflow sweep. */
    void
    insertWheel(Tick when, std::uint64_t seq, Callback &&cb)
    {
        const std::size_t b = when & kWheelMask;
        buckets_[b].events.emplace_back(when, seq, std::move(cb));
        occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
        ++wheel_count_;
    }

    /**
     * Move every wheel event back to the overflow list, preserving
     * per-bucket (per-tick) order. Taken only when a boundary delivery
     * lands below the whole resident window (the LP idled far ahead);
     * the next sweep re-anchors the window at the early event.
     */
    void spillWheelToOverflow();

    /**
     * Index of the bucket holding the earliest pending event, advancing
     * the window / sweeping the overflow list as needed. Returns -1 when
     * no events remain.
     */
    std::ptrdiff_t findNextBucket();

    /** Pop and run the front event of bucket `b` (found by findNextBucket). */
    void executeFront(std::ptrdiff_t b);

    std::vector<Bucket> buckets_;
    std::array<std::uint64_t, kBitmapWords> occupied_{};

    /** Wheel residency window is [search_from_, wheel_limit_), <= kWheelSize
     *  wide; every pending wheel event's tick lies inside it. */
    Tick wheel_limit_ = kWheelSize;
    /** Lower bound for the next-event scan; no pending event is earlier. */
    Tick search_from_ = 0;
    std::size_t wheel_count_ = 0;

    /** Events at or beyond wheel_limit_, in insertion order. */
    std::vector<Event> overflow_;
    Tick overflow_min_ = kTickMax;

    /**
     * Scratch storage for run()'s bucket drain: the current bucket's
     * events are swapped here and consumed in place, so a callback that
     * schedules into the (now empty) bucket can never reallocate the
     * vector being executed. Capacities circulate between buckets
     * through this vector, keeping the steady state allocation-free.
     */
    std::vector<Event> draining_;

    Tick now_ = 0;
    std::size_t size_ = 0;
    std::uint64_t executed_ = 0;

    /** Private insertion-order counter (see setSeqSource). */
    std::uint64_t own_seq_ = 0;
    std::uint64_t *seq_src_ = &own_seq_;
    bool affine_ = false;

    // The engine this thread is executing; never shared across threads.
    static thread_local Engine *tl_current;
};

} // namespace hmg

#endif // HMG_SIM_ENGINE_HH
