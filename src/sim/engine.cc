#include "sim/engine.hh"

#include <algorithm>
#include <utility>

#include "common/log.hh"

namespace hmg
{

thread_local Engine *Engine::tl_current = nullptr;

Engine::Engine() : buckets_(kWheelSize) {}

void
Engine::spillWheelToOverflow()
{
    // Wheel ticks ([search_from_, wheel_limit_)) are disjoint from both
    // the pre-existing overflow ticks (>= wheel_limit_) and the early
    // boundary deliveries that triggered the spill (< the window), so
    // appending bucket-by-bucket keeps every same-tick run of the
    // overflow list in insertion order — the sweep that follows rebuilds
    // (tick, insertion-order) exactly.
    for (std::size_t w = 0; w < kBitmapWords; ++w) {
        std::uint64_t bits = occupied_[w];
        while (bits != 0) {
            const std::size_t b =
                (w << 6) + static_cast<std::size_t>(__builtin_ctzll(bits));
            bits &= bits - 1;
            Bucket &bk = buckets_[b];
            for (std::size_t i = bk.head; i < bk.events.size(); ++i)
                overflow_.emplace_back(std::move(bk.events[i]));
            bk.events.clear();
            bk.head = 0;
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
            // buckets in increasing-tick order.
            const std::size_t start = search_from_ & kWheelMask;
            std::size_t word = start >> 6;
            std::uint64_t bits =
                occupied_[word] & (~std::uint64_t{0} << (start & 63));
            for (;;) {
                if (bits != 0) {
                    const auto b = static_cast<std::ptrdiff_t>(
                        (word << 6) +
                        static_cast<std::size_t>(__builtin_ctzll(bits)));
                    // The bucket's (unique) tick, recovered from the
                    // index arithmetically — no memory dependency.
                    search_from_ +=
                        (static_cast<Tick>(b) - search_from_) & kWheelMask;
                    return b;
                }
                word = (word + 1) & (kBitmapWords - 1);
                bits = occupied_[word];
            }
        }
        if (overflow_.empty())
            return -1;
        // Wheel drained: jump the window to the earliest overflow event
        // and sweep everything inside the new window into the wheel. The
        // sweep preserves insertion order — the tie-break half of the
        // determinism contract — and any event scheduled into these ticks
        // afterwards appends behind the swept ones, so (tick, insertion
        // order) holds across the wheel/overflow boundary.
        search_from_ = overflow_min_;
        wheel_limit_ = overflow_min_ + kWheelSize;
        Tick new_min = kTickMax;
        std::size_t keep = 0;
        for (auto &ev : overflow_) {
            if (ev.when < wheel_limit_) {
                insertWheel(ev.when, ev.seq, std::move(ev.cb));
            } else {
                new_min = std::min(new_min, ev.when);
                overflow_[keep++] = std::move(ev);
            }
        }
        overflow_.resize(keep);
        overflow_min_ = new_min;
    }
}

void
Engine::executeFront(std::ptrdiff_t b)
{
    Bucket &bk = buckets_[static_cast<std::size_t>(b)];
    Event &ev = bk.events[bk.head];
    hmg_assert(ev.when >= now_);
    now_ = ev.when;
    Callback cb = std::move(ev.cb);
    if (++bk.head == bk.events.size()) {
        // clear() keeps the vector's capacity: the steady state recycles
        // bucket storage without touching the heap.
        bk.events.clear();
        bk.head = 0;
        const auto bit = static_cast<std::size_t>(b);
        occupied_[bit >> 6] &= ~(std::uint64_t{1} << (bit & 63));
    }
    --wheel_count_;
    --size_;
    ++executed_;
    cb();
}

bool
Engine::peekNext(Tick &when, std::uint64_t &seq)
{
    const std::ptrdiff_t b = findNextBucket();
    if (b < 0)
        return false;
    const Bucket &bk = buckets_[static_cast<std::size_t>(b)];
    const Event &ev = bk.events[bk.head];
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
    // kWheelSize, so every event in a bucket shares one tick — a found
    // bucket can be drained whole without rescanning the bitmap. Events
    // are consumed in place from `draining_` (one indirect call each, no
    // move-out); a callback scheduling at the current tick appends to
    // the bucket's now-empty vector, which the outer while picks up in
    // insertion order.
    for (;;) {
        const std::ptrdiff_t b = findNextBucket();
        if (b < 0 || search_from_ > until)
            break;
        Bucket &bk = buckets_[static_cast<std::size_t>(b)];
        now_ = search_from_;
        while (!bk.events.empty()) {
            draining_.swap(bk.events);
            const std::uint32_t h = std::exchange(bk.head, 0u);
            // No callback can touch draining_ (appends go to bk.events),
            // so the data pointer and size are loop-invariant.
            Event *const ev = draining_.data();
            const std::size_t sz = draining_.size();
            for (std::size_t i = h; i < sz; ++i)
                ev[i].cb.consume();
            wheel_count_ -= sz - h;
            size_ -= sz - h;
            executed_ += sz - h;
            draining_.clear();
        }
        const auto bit = static_cast<std::size_t>(b);
        occupied_[bit >> 6] &= ~(std::uint64_t{1} << (bit & 63));
    }
    tl_current = prev;
    return now_;
}

} // namespace hmg
