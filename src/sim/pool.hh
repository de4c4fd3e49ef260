/**
 * @file
 * The two shapes of waiting in the simulator, each written once.
 *
 *  - SlotPool<T> holds work parked under an index until a later event
 *    takes it back: an SM's warps and CTAs, a GPM's MSHR waiters and
 *    parked fetch continuations, and the completions the runtime
 *    checker wraps. The pool grows to its peak number of slots in use
 *    and then reuses them, the last freed first, so a steady state
 *    allocates nothing. Growing may move the slots: a holder keeps an
 *    index, never a reference, across take().
 *  - DrainLedger<Cb> counts work in flight and holds the continuations
 *    waiting for the count to reach zero: a GPM's invalidations (a
 *    release marker's acknowledgment waits on them) and write-backs (a
 *    write-back flush waits on them), and each SM's writes short of its
 *    GPU home and of the system home (its releases wait on them,
 *    Sections IV-B and V-B).
 */

#ifndef HMG_SIM_POOL_HH
#define HMG_SIM_POOL_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/log.hh"

namespace hmg
{

/** Index-addressed slots, reused last-freed-first. */
template <typename T>
class SlotPool
{
  public:
    using Index = std::uint32_t;

    /**
     * A slot to fill: the last one freed, or a new default-constructed
     * one at the end. A reused slot holds what its last holder left.
     */
    Index
    take()
    {
        if (free_.empty()) {
            hmg_assert(slots_.size() < std::numeric_limits<Index>::max());
            slots_.emplace_back();
            return static_cast<Index>(slots_.size() - 1);
        }
        const Index i = free_.back();
        free_.pop_back();
        return i;
    }

    /** Hand slot `i` back; its contents stay until it is taken again. */
    void free(Index i) { free_.push_back(i); }

    T &operator[](Index i) { return slots_[i]; }
    const T &operator[](Index i) const { return slots_[i]; }

    /** Slots in the pool: the peak number in use at once. */
    std::size_t size() const { return slots_.size(); }

  private:
    std::vector<T> slots_;
    std::vector<Index> free_;
};

/** An in-flight count whose waiters run, in arrival order, at zero. */
template <typename Cb>
class DrainLedger
{
  public:
    /** One more piece of work is in flight. */
    void issue() { ++in_flight_; }

    /** One piece of work landed; the last to land runs the waiters. */
    void
    land()
    {
        hmg_assert(in_flight_ > 0);
        if (--in_flight_ == 0)
            drain();
    }

    /** Run `cb` once nothing is in flight: now, if nothing is. */
    void
    wait(Cb cb)
    {
        if (in_flight_ == 0)
            cb();
        else
            waiters_.push_back(std::move(cb));
    }

    std::uint64_t inFlight() const { return in_flight_; }

  private:
    /**
     * Run the waiters queued when the count reached zero, first come
     * first run. One that issues and waits again while they run (a
     * marker round starting its next round at the same GPM) waits for
     * the next drain; one that waits with nothing in flight runs at
     * once.
     */
    void
    drain()
    {
        std::vector<Cb> batch = std::move(waiters_);
        waiters_.clear();
        for (Cb &cb : batch)
            cb();
    }

    std::uint64_t in_flight_ = 0;
    std::vector<Cb> waiters_;
};

} // namespace hmg

#endif // HMG_SIM_POOL_HH
