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
 *  - events live in one slab of fixed-size blocks whose addresses never
 *    move, so a callback runs in place while it schedules more; freed
 *    slots go on a LIFO free list, so the next schedule reuses the
 *    hottest slot;
 *  - one FIFO list of 32-bit slot indices per tick over a 2^14-cycle
 *    window; scheduling links the slot behind the tick's tail,
 *    execution walks a 2 KB occupancy bitmap to the next populated tick;
 *  - events beyond the window go to an overflow list of the same kind,
 *    swept into the wheel each time the wheel drains (at most once per
 *    2^14 ticks, or directly to the next populated tick when the
 *    schedule is sparse); the sweep relinks indices, it moves no event;
 *  - callbacks are SmallCallback (sim/callback.hh), so the common
 *    capture sizes — including the protocol engines' fattest data-path
 *    continuations — are stored inline in the slot;
 *  - a busy cell keeps more live events than the host's L2 holds, so
 *    the drain loop prefetches the next event's slot while the current
 *    one runs, and allocation prefetches the next free slot.
 *
 * Storage follows the number of live events, not the window: the slab
 * holds at most the peak of pending plus executing events, rounded up
 * to one block. Steady state does no heap allocation per event. The
 * determinism contract and its proof obligations are spelled out in
 * DESIGN.md ("Event kernel & parallel sweeps").
 */

#ifndef HMG_SIM_ENGINE_HH
#define HMG_SIM_ENGINE_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "sim/callback.hh"

namespace hmg
{

/**
 * Discrete-event simulation engine. Each LP's engine is written by that
 * LP's thread on every event, so an engine owns whole host lines.
 */
class alignas(kHostLineBytes) Engine
{
  public:
    /**
     * Inline capacity of 192 bytes covers every closure the protocol
     * engines schedule or send. The fattest is a store's write-through
     * step (`this`, a StoreFlow with its completion, a home id and the
     * accept completion: 184 bytes); an atomic's step, with its access,
     * ids, version and two completions, is 176. Both count on a
     * completion callback taking one 64-byte line (sim/callback.hh,
     * pinned by tests/alloc_test.cc); a closure that outgrows the
     * buffer does not compile.
     */
    using Callback = SmallCallback<192>;

    /** Event slots per slab block; the slab grows a block at a time. */
    static constexpr std::size_t kSlabBlockEvents = 256;

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
     * callable is constructed directly in its slab slot — a closure
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

    /**
     * Events the slab holds without growing. It never shrinks, and it
     * never exceeds the peak number of live events (pending plus the
     * one executing) rounded up to kSlabBlockEvents.
     */
    std::size_t
    slabCapacity() const
    {
        return blocks_.size() * kSlabBlockEvents;
    }

  private:
    /** log2 of the wheel window; one bucket (a FIFO list) per tick. */
    static constexpr std::size_t kWheelBits = 14;
    static constexpr std::size_t kWheelSize = std::size_t{1} << kWheelBits;
    static constexpr std::size_t kWheelMask = kWheelSize - 1;
    static constexpr std::size_t kBitmapWords = kWheelSize / 64;
    static constexpr std::size_t kBlockBits = 8;
    static_assert(kSlabBlockEvents == std::size_t{1} << kBlockBits);
    static constexpr std::size_t kBlockMask = kSlabBlockEvents - 1;
    /** End-of-list slot index; never a valid slot. */
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    struct Event
    {
        Tick when = 0;
        /** Insertion-order stamp; ties on `when` break by `seq`. */
        std::uint64_t seq = 0;
        /** Next slot of the list holding this one: a tick's, the
         *  overflow list or the free list. */
        std::uint32_t next = kNil;
        /** Empty whenever the slot is free. */
        Callback cb;
    };

  public:
    /** Bytes of one slab slot: timing fields plus the callback. */
    static constexpr std::size_t kSlotBytes = sizeof(Event);

  private:
    /** A FIFO of slab slots, linked through Event::next. */
    struct List
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
    };

    Event &
    slot(std::uint32_t i)
    {
        return blocks_[i >> kBlockBits][i & kBlockMask];
    }

    /** Link slot `i` (whose `next` is kNil) behind `l`'s tail. */
    void
    append(List &l, std::uint32_t i)
    {
        if (l.tail == kNil)
            l.head = i;
        else
            slot(l.tail).next = i;
        l.tail = i;
    }

    /** Unlink and return `l`'s head; `l` must not be empty. */
    std::uint32_t
    popFront(List &l)
    {
        const std::uint32_t i = l.head;
        l.head = slot(i).next;
        if (l.head == kNil)
            l.tail = kNil;
        return i;
    }

    /**
     * Pull every host cache line of slot `i` toward the core; `Rw` is
     * 1 for a slot about to be written. The slot's alignment is not a
     * line's, so its last byte is fetched too.
     */
    template <int Rw>
    void
    prefetchSlot(std::uint32_t i)
    {
        const char *p = reinterpret_cast<const char *>(&slot(i));
        for (std::size_t off = 0; off < sizeof(Event); off += kHostLineBytes)
            __builtin_prefetch(p + off, Rw, 3);
        __builtin_prefetch(p + sizeof(Event) - 1, Rw, 3);
    }

    /**
     * Take the most recently freed slot, growing the slab if none, and
     * prefetch the one after it, which the next schedule will write.
     */
    std::uint32_t
    allocSlot()
    {
        if (free_ == kNil)
            growSlab();
        const std::uint32_t i = free_;
        free_ = slot(i).next;
        if (free_ != kNil)
            prefetchSlot<1>(free_);
        return i;
    }

    /** Return slot `i`, whose callback has been consumed. */
    void
    freeSlot(std::uint32_t i)
    {
        slot(i).next = free_;
        free_ = i;
    }

    /** Add one block of slots to the free list. */
    void growSlab();

    /** Link slot `i` behind tick list `b`, which is in the window. */
    void
    linkWheel(std::size_t b, std::uint32_t i)
    {
        append(wheel_[b], i);
        occupied_[b >> 6] |= std::uint64_t{1} << (b & 63);
        ++wheel_count_;
    }

    /**
     * Common schedule path; the callable is constructed straight into a
     * free slab slot, which is then linked onto its tick's list or the
     * overflow list. Defined here so scheduling inlines into the
     * protocol engines' hot loops (it is a handful of instructions plus
     * the closure's construction).
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
        const std::uint32_t i = allocSlot();
        Event &ev = slot(i);
        ev.when = when;
        ev.seq = (*seq_src_)++;
        ev.next = kNil;
        // A free slot's callback is empty, so the closure is built in
        // its place with no intermediate Callback move.
        ::new (&ev.cb) Callback(std::forward<F>(f));
        hmg_assert(ev.cb);
        if (when < wheel_limit_ && when >= wheel_limit_ - kWheelSize) {
            linkWheel(when & kWheelMask, i);
            // An LP whose own schedule is sparse can have its scan
            // cursor far ahead of merged time when a boundary delivery
            // lands; pull the cursor back so the bitmap scan visits the
            // new event. Serial runs never take this branch (inserts
            // are always at or after the cursor).
            if (when < search_from_)
                search_from_ = when;
        } else {
            overflow_min_ = std::min(overflow_min_, when);
            append(overflow_, i);
        }
        ++size_;
    }

    /**
     * Move every wheel event back to the overflow list, preserving
     * per-tick order. Taken only when a boundary delivery lands below
     * the whole resident window (the LP idled far ahead); the next
     * sweep re-anchors the window at the early event.
     */
    void spillWheelToOverflow();

    /**
     * Index of the tick list holding the earliest pending event,
     * advancing the window / sweeping the overflow list as needed.
     * Returns -1 when no events remain.
     */
    std::ptrdiff_t findNextBucket();

    /** Unlink the front event of tick list `b` (found by
     *  findNextBucket), run it in place, then free its slot. */
    void executeFront(std::ptrdiff_t b);

    /** The slab: fixed-size blocks that never move once allocated. */
    std::vector<std::unique_ptr<Event[]>> blocks_;
    /** Head of the LIFO free list of slots. */
    std::uint32_t free_ = kNil;

    /** One list per tick of the window, indexed by `tick & kWheelMask`. */
    std::vector<List> wheel_;
    std::array<std::uint64_t, kBitmapWords> occupied_{};

    /** Wheel residency window is [search_from_, wheel_limit_), <= kWheelSize
     *  wide; every pending wheel event's tick lies inside it. */
    Tick wheel_limit_ = kWheelSize;
    /** Lower bound for the next-event scan; no pending event is earlier. */
    Tick search_from_ = 0;
    std::size_t wheel_count_ = 0;

    /** Events outside the window; each tick's in insertion order. */
    List overflow_;
    Tick overflow_min_ = kTickMax;

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

static_assert(alignof(Engine) == kHostLineBytes);

} // namespace hmg

#endif // HMG_SIM_ENGINE_HH
