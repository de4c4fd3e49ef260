#include "sim/engine.hh"

#include <algorithm>
#include <utility>

#include "common/log.hh"

namespace hmg
{

thread_local Engine *Engine::tl_current = nullptr;

Engine::Engine() : wheel_(kWheelSize) {}

void
Engine::growSlab()
{
    // Slot indices are 32-bit with kNil reserved, so the slab tops out
    // just short of 2^32 events (about 1 TB of them).
    hmg_assert(blocks_.size() < (std::size_t{kNil} >> kBlockBits));
    const auto base = static_cast<std::uint32_t>(blocks_.size()
                                                 << kBlockBits);
    blocks_.push_back(std::make_unique<Event[]>(kSlabBlockEvents));
    // Push in reverse so the block hands out its slots in address order.
    for (auto k = static_cast<std::uint32_t>(kSlabBlockEvents); k-- > 0;)
        freeSlot(base + k);
}

void
Engine::spillWheelToOverflow()
{
    // Wheel ticks ([search_from_, wheel_limit_)) are disjoint from both
    // the pre-existing overflow ticks (>= wheel_limit_) and the early
    // boundary deliveries that triggered the spill (< the window), so
    // appending tick list by tick list keeps every same-tick run of the
    // overflow list in insertion order — the sweep that follows
    // rebuilds (tick, insertion-order) exactly. Each tick's list is
    // spliced whole; no event moves.
    for (std::size_t w = 0; w < kBitmapWords; ++w) {
        std::uint64_t bits = occupied_[w];
        while (bits != 0) {
            const std::size_t b =
                (w << 6) + static_cast<std::size_t>(__builtin_ctzll(bits));
            bits &= bits - 1;
            List &bk = wheel_[b];
            if (overflow_.tail == kNil)
                overflow_.head = bk.head;
            else
                slot(overflow_.tail).next = bk.head;
            overflow_.tail = bk.tail;
            bk = List{};
        }
        occupied_[w] = 0;
    }
    wheel_count_ = 0;
}

std::ptrdiff_t
Engine::findNextBucket()
{
    for (;;) {
        if (wheel_count_ > 0 && overflow_min_ < search_from_) {
            // A boundary delivery landed below the entire resident
            // window; push the wheel back into overflow and fall through
            // to the sweep, which re-anchors the window at the early
            // event. Only partitioned runs can reach this.
            spillWheelToOverflow();
        }
        if (wheel_count_ > 0) {
            // Every pending wheel event lies in [search_from_,
            // wheel_limit_), a window at most kWheelSize wide, so a
            // circular bitmap scan starting at search_from_ visits
            // tick lists in increasing-tick order.
            const std::size_t start = search_from_ & kWheelMask;
            std::size_t word = start >> 6;
            std::uint64_t bits =
                occupied_[word] & (~std::uint64_t{0} << (start & 63));
            for (;;) {
                if (bits != 0) {
                    const auto b = static_cast<std::ptrdiff_t>(
                        (word << 6) +
                        static_cast<std::size_t>(__builtin_ctzll(bits)));
                    // The list's (unique) tick, recovered from the
                    // index arithmetically — no memory dependency.
                    search_from_ +=
                        (static_cast<Tick>(b) - search_from_) & kWheelMask;
                    return b;
                }
                word = (word + 1) & (kBitmapWords - 1);
                bits = occupied_[word];
            }
        }
        if (overflow_.head == kNil)
            return -1;
        // Wheel drained: jump the window to the earliest overflow event
        // and relink everything inside the new window onto its tick's
        // list. The sweep walks the overflow list in order, so each
        // tick keeps insertion order — the tie-break half of the
        // determinism contract — and any event scheduled into these
        // ticks afterwards links behind the swept ones, so (tick,
        // insertion order) holds across the wheel/overflow boundary.
        search_from_ = overflow_min_;
        wheel_limit_ = overflow_min_ + kWheelSize;
        Tick new_min = kTickMax;
        List keep;
        for (std::uint32_t i = overflow_.head; i != kNil;) {
            Event &ev = slot(i);
            const std::uint32_t next = std::exchange(ev.next, kNil);
            if (ev.when < wheel_limit_) {
                linkWheel(ev.when & kWheelMask, i);
            } else {
                new_min = std::min(new_min, ev.when);
                append(keep, i);
            }
            i = next;
        }
        overflow_ = keep;
        overflow_min_ = new_min;
    }
}

void
Engine::executeFront(std::ptrdiff_t b)
{
    List &bk = wheel_[static_cast<std::size_t>(b)];
    const std::uint32_t i = popFront(bk);
    if (bk.head == kNil) {
        const auto bit = static_cast<std::size_t>(b);
        occupied_[bit >> 6] &= ~(std::uint64_t{1} << (bit & 63));
    }
    Event &ev = slot(i);
    hmg_assert(ev.when >= now_);
    now_ = ev.when;
    --wheel_count_;
    --size_;
    ++executed_;
    // Blocks never move, so the callback runs in place even if it grows
    // the slab; its slot is freed only once it returns.
    ev.cb.consume();
    freeSlot(i);
}

bool
Engine::peekNext(Tick &when, std::uint64_t &seq)
{
    const std::ptrdiff_t b = findNextBucket();
    if (b < 0)
        return false;
    const Event &ev = slot(wheel_[static_cast<std::size_t>(b)].head);
    when = ev.when;
    seq = ev.seq;
    return true;
}

bool
Engine::runOne()
{
    const std::ptrdiff_t b = findNextBucket();
    if (b < 0)
        return false;
    Engine *const prev = tl_current;
    tl_current = this;
    executeFront(b);
    tl_current = prev;
    return true;
}

Tick
Engine::run(Tick until)
{
    Engine *const prev = tl_current;
    tl_current = this;
    // The window [search_from_, wheel_limit_) is never wider than
    // kWheelSize, so every event on a tick list shares one tick — a
    // found list can be drained whole without rescanning the bitmap.
    // Each event is unlinked before it runs in place (one indirect
    // call, no move-out); a callback scheduling at the current tick
    // links behind the list's tail, and this loop picks it up in
    // insertion order. This is executeFront() with its now_ and bitmap
    // updates hoisted to once per tick; draining through executeFront()
    // instead cost ~7% of bench_engine_microbench --kernel-only
    // throughput (4-core VM, GCC 12.2).
    for (;;) {
        const std::ptrdiff_t b = findNextBucket();
        if (b < 0 || search_from_ > until)
            break;
        List &bk = wheel_[static_cast<std::size_t>(b)];
        now_ = search_from_;
        do {
            const std::uint32_t i = popFront(bk);
            --wheel_count_;
            --size_;
            ++executed_;
            slot(i).cb.consume();
            freeSlot(i);
        } while (bk.head != kNil);
        const auto bit = static_cast<std::size_t>(b);
        occupied_[bit >> 6] &= ~(std::uint64_t{1} << (bit & 63));
    }
    tl_current = prev;
    return now_;
}

} // namespace hmg
