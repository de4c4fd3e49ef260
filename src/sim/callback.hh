/**
 * @file
 * A move-only callable stored in place, for engine events and protocol
 * completion paths.
 *
 * std::function's inline buffer (16 bytes on libstdc++) is smaller than
 * almost every closure the protocol engines schedule — a typical data-path
 * continuation captures `this`, a MemAccess, a few ids and one or two
 * completion callbacks — so the seed engine paid one heap allocation +
 * free per event. SmallCallback<N> stores its callable in an N-byte
 * buffer and nowhere else: a closure larger than N, aligned beyond a
 * pointer, or whose move may throw does not convert, so a capture that
 * outgrows its buffer is a compile error, never a silent allocation.
 * Dispatch is a single ops-table pointer (invoke / relocate / destroy),
 * generated per closure type.
 *
 * The buffer is aligned to a pointer, not to `std::max_align_t`: every
 * capture the simulator makes (pointers, ids, addresses, other
 * SmallCallbacks) needs no more, and the smaller alignment drops the
 * padding after the ops pointer. A SmallCallback<N> is then exactly
 * N + 8 bytes — a completion callback is one 64-byte host cache line.
 *
 * The signature is a template parameter (`SmallCallback<N, R(Args...)>`,
 * defaulting to `void()`), so the same machinery backs the engine's
 * events, the protocols' `void(Version)` load completions, and the
 * per-hop arrival continuations of the transport layer.
 */

#ifndef HMG_SIM_CALLBACK_HH
#define HMG_SIM_CALLBACK_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace hmg
{

/**
 * Inline capacity shared by the protocol completion callbacks
 * (core/protocol.hh's LoadDoneCb/DoneCb and GpmNode's parked
 * continuations) and the SM front-end's MSHR waiters. Sized for the
 * SM's fattest capture (`this` + a warp slot index + a MemAccess + a
 * Version + an op pointer = 56 bytes).
 */
constexpr std::size_t kCompletionCbBytes = 56;

template <std::size_t N, typename Sig = void()>
class SmallCallback;

/** Move-only `R(Args...)` callable held in `N` bytes of its own. */
template <std::size_t N, typename R, typename... Args>
class SmallCallback<N, R(Args...)>
{
    static constexpr std::size_t kAlign = alignof(void *);
    static_assert(N % kAlign == 0, "inline capacity must keep the "
                                   "callback free of tail padding");

    /** Can `Fn` live in the buffer? Nothing else is accepted. */
    template <typename Fn>
    static constexpr bool kFits = sizeof(Fn) <= N &&
                                  alignof(Fn) <= kAlign &&
                                  std::is_nothrow_move_constructible_v<Fn>;

  public:
    SmallCallback() = default;
    SmallCallback(std::nullptr_t) {}

    template <typename F>
        requires(!std::is_same_v<std::decay_t<F>, SmallCallback> &&
                 std::is_invocable_r_v<R, std::decay_t<F> &, Args...> &&
                 kFits<std::decay_t<F>>)
    SmallCallback(F &&f)
    {
        using Fn = std::decay_t<F>;
        new (buf_) Fn(std::forward<F>(f));
        ops_ = &opsFor<Fn>;
    }

    SmallCallback(SmallCallback &&other) noexcept { moveFrom(other); }

    SmallCallback &
    operator=(SmallCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    SmallCallback(const SmallCallback &) = delete;
    SmallCallback &operator=(const SmallCallback &) = delete;

    ~SmallCallback() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    /** Invoke the stored callable. Undefined if empty (like std::function
     *  minus the throw). */
    R
    operator()(Args... args)
    {
        return ops_->invoke(buf_, std::forward<Args>(args)...);
    }

    /**
     * Invoke the stored callable and destroy it in place, leaving *this
     * empty. One indirect call instead of move-out + invoke + destroy —
     * the engine's event-execution hot path. Undefined if empty.
     */
    R
    consume(Args... args)
    {
        const Ops *o = ops_;
        ops_ = nullptr;
        return o->invoke_destroy(buf_, std::forward<Args>(args)...);
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args...);
        /** Invoke, then destroy — fused for the consume() fast path. */
        R (*invoke_destroy)(void *, Args...);
        /** Move-construct into `dst` from `src`, then destroy `src`. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *);
    };

    template <typename Fn>
    static constexpr Ops opsFor = {
        [](void *p, Args... args) -> R {
            return (*std::launder(reinterpret_cast<Fn *>(p)))(
                std::forward<Args>(args)...);
        },
        [](void *p, Args... args) -> R {
            Fn *f = std::launder(reinterpret_cast<Fn *>(p));
            if constexpr (std::is_void_v<R>) {
                (*f)(std::forward<Args>(args)...);
                f->~Fn();
            } else {
                R r = (*f)(std::forward<Args>(args)...);
                f->~Fn();
                return r;
            }
        },
        [](void *dst, void *src) {
            Fn *s = std::launder(reinterpret_cast<Fn *>(src));
            new (dst) Fn(std::move(*s));
            s->~Fn();
        },
        [](void *p) { std::launder(reinterpret_cast<Fn *>(p))->~Fn(); },
    };

    void
    moveFrom(SmallCallback &other) noexcept
    {
        if (other.ops_) {
            ops_ = other.ops_;
            ops_->relocate(buf_, other.buf_);
            other.ops_ = nullptr;
        }
    }

    void
    reset()
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    const Ops *ops_ = nullptr;
    alignas(kAlign) unsigned char buf_[N];
};

} // namespace hmg

#endif // HMG_SIM_CALLBACK_HH
