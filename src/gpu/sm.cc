#include "gpu/sm.hh"

#include <utility>

#include "common/log.hh"

namespace hmg
{

Sm::Sm(SystemContext &ctx, CoherenceModel &model, SmId id)
    : ctx_(ctx),
      model_(model),
      id_(id),
      gpm_(ctx.cfg.gpmOfSm(id)),
      l1_(ctx.cfg.l1Bytes, ctx.cfg.l1Ways, ctx.cfg.cacheLineBytes,
          /*write_allocate=*/false),
      issue_port_(static_cast<double>(ctx.cfg.smIssueWidth))
{
}

Addr
Sm::lineOf(Addr a) const
{
    return a & ~static_cast<Addr>(ctx_.cfg.cacheLineBytes - 1);
}

MemAccess
Sm::accessFor(const trace::MemOp &op) const
{
    return MemAccess{id_, gpm_, lineOf(op.addr), op.scope};
}

// ------------------------------------------------------------ CTA entry

void
Sm::runCta(const trace::Cta &cta, std::function<void()> on_done)
{
    hmg_assert(canAccept(cta));
    hmg_assert(!cta.warps.empty());

    auto remaining = std::make_shared<std::uint32_t>(
        static_cast<std::uint32_t>(cta.warps.size()));
    auto cta_done = [this, remaining, on_done = std::move(on_done)]() {
        if (--*remaining == 0)
            on_done();
    };

    active_warps_ += static_cast<std::uint32_t>(cta.warps.size());
    for (const auto &warp : cta.warps) {
        auto w = std::make_shared<WarpCtx>();
        w->warp = &warp;
        w->pc = 0;
        w->onDone = cta_done;
        warpStep(w);
    }
}

// ------------------------------------------------------- warp scheduling

void
Sm::warpStep(const WarpPtr &w)
{
    if (w->pc >= w->warp->ops.size()) {
        if (w->inflight > 0) {
            // Retire only once every posted load has returned. The
            // parked continuation lives *inside* the WarpCtx, so it
            // must not own it: a strong self-capture is a cycle that
            // leaks every warp abandoned by a SimHang unwind. While
            // parked, inflight > 0 — each in-flight load's completion
            // callback holds the strong reference that keeps the
            // context alive, so the lock below cannot fail in a live
            // simulation.
            w->resume = [this, wp = std::weak_ptr<WarpCtx>(w)]() {
                auto s = wp.lock();
                hmg_assert(s);
                warpStep(s);
            };
            return;
        }
        finishWarp(w);
        return;
    }
    const trace::MemOp &op = w->warp->ops[w->pc];
    // Abstract compute before the op, then the shared issue port.
    Tick after_compute = ctx_.engine().now() + op.delay;
    Tick issued = issue_port_.serialize(after_compute, 1);
    ctx_.engine().scheduleAt(issued, [this, w, &op]() { execute(w, op); });
}

void
Sm::advance(const WarpPtr &w)
{
    ++w->pc;
    warpStep(w);
}

void
Sm::finishWarp(const WarpPtr &w)
{
    hmg_assert(active_warps_ > 0);
    --active_warps_;
    w->onDone();
}

void
Sm::execute(const WarpPtr &w, const trace::MemOp &op)
{
    // Structural hazards. Synchronizing ops (atomics, fences,
    // acquire-loads, release-stores) drain the warp's posted loads
    // first; plain loads stall at the per-warp in-flight limit.
    const bool needs_drain =
        op.type == MemOpType::Atomic || op.type == MemOpType::AcqFence ||
        op.type == MemOpType::RelFence ||
        (op.type == MemOpType::Load && op.acq &&
         op.scope > Scope::Cta) ||
        (op.type == MemOpType::Store && op.rel && op.scope > Scope::Cta);
    // Both park sites require inflight > 0, so the weak self-capture
    // (cycle avoidance, see warpStep) is safe: outstanding load
    // completions own the context until the warp is unparked.
    if (needs_drain && w->inflight > 0) {
        w->resume = [this, wp = std::weak_ptr<WarpCtx>(w), &op]() {
            auto s = wp.lock();
            hmg_assert(s);
            execute(s, op);
        };
        return;
    }
    if (op.type == MemOpType::Load && !needs_drain &&
        w->inflight >= ctx_.cfg.warpMaxInflightLoads) {
        w->resume = [this, wp = std::weak_ptr<WarpCtx>(w), &op]() {
            auto s = wp.lock();
            hmg_assert(s);
            execute(s, op);
        };
        return;
    }

    ++ops_executed_;
    switch (op.type) {
      case MemOpType::Load:
        doLoad(w, op);
        break;
      case MemOpType::Store:
        doStore(w, op);
        break;
      case MemOpType::Atomic:
        doAtomic(w, op);
        break;
      case MemOpType::AcqFence:
        doAcquire(w, op);
        break;
      case MemOpType::RelFence:
        doRelease(w, op, [this, w]() { advance(w); });
        break;
    }
}

// ------------------------------------------------------------------ loads

void
Sm::doLoad(const WarpPtr &w, const trace::MemOp &op)
{
    ++loads_;
    const MemAccess acc = accessFor(op);
    const bool blocking = op.acq && op.scope > Scope::Cta;

    if (acc.scope <= Scope::Cta) {
        // Forward the warp's own in-flight writes.
        const Version *sb = sbLookup(acc.lineAddr);
        auto l1 = sb ? Cache::LoadResult{false, 0} : l1_.load(acc.lineAddr);
        if (sb || l1.hit) {
            if (sb)
                ++sb_forwards_;
            // Near-hit: the warp continues after the L1 access time.
            ctx_.engine().schedule(ctx_.cfg.l1HitLatency,
                                 [this, w]() { advance(w); });
            return;
        }
    }

    if (blocking) {
        // Acquire-loads behave like the classic blocking load: the warp
        // waits for the value, performs the acquire, then continues.
        withSlot([this, w, acc, &op]() {
            ctx_.engine().schedule(ctx_.cfg.l1HitLatency,
                                 [this, w, acc, &op]() {
                model_.load(acc, [this, w, acc, &op](Version v) {
                    if (model_.mayCache(gpm_, acc.lineAddr))
                        l1_.fill(acc.lineAddr, v);
                    releaseSlot();
                    (void)v;
                    acquireThenAdvance(w, op);
                });
            });
        });
        return;
    }

    // Posted load: the warp continues immediately and only stalls at
    // the in-flight limit or at the next synchronizing op.
    ++w->inflight;
    withSlot([this, w, acc]() {
        ctx_.engine().schedule(ctx_.cfg.l1HitLatency, [this, w, acc]() {
            model_.load(acc, [this, w, acc](Version v) {
                if (model_.mayCache(gpm_, acc.lineAddr))
                    l1_.fill(acc.lineAddr, v);
                releaseSlot();
                loadCompleted(w);
            });
        });
    });
    ctx_.engine().schedule(1, [this, w]() { advance(w); });
}

void
Sm::loadCompleted(const WarpPtr &w)
{
    hmg_assert(w->inflight > 0);
    --w->inflight;
    if (w->resume) {
        auto r = std::move(w->resume);
        w->resume = nullptr;
        r();
    }
}

// ----------------------------------------------------------------- stores

void
Sm::doStore(const WarpPtr &w, const trace::MemOp &op)
{
    ++stores_;
    auto body = [this, w, &op]() {
        const MemAccess acc = accessFor(op);
        const Version v = ctx_.mem.allocateVersion();

        // Transport backpressure: a congested egress NIC parks the
        // write-through here until credits drain, so an oversubscribed
        // inter-GPU link throttles store issue instead of growing an
        // unbounded in-network queue.
        ctx_.net.whenInjectable(gpm_, [this, w, acc, v]() {
            withSlot([this, w, acc, v]() {
                ctx_.tracker.issued(id_);
                // Write-through, no-allocate L1 update.
                l1_.store(acc.lineAddr, v);
                sbInsert(acc.lineAddr, v);
                model_.store(acc, v, /*accepted=*/[]() {},
                             /*sys_done=*/[this, line = acc.lineAddr]() {
                    sbRemove(line);
                    releaseSlot();
                });
                // The warp retires the posted store after a small cost.
                ctx_.engine().schedule(ctx_.cfg.storeIssueCost,
                                     [this, w]() { advance(w); });
            });
        });
    };

    if (op.rel && op.scope > Scope::Cta)
        doRelease(w, op, std::move(body));
    else
        body();
}

// ---------------------------------------------------------------- atomics

void
Sm::doAtomic(const WarpPtr &w, const trace::MemOp &op)
{
    ++atomics_;
    auto body = [this, w, &op]() {
        const MemAccess acc = accessFor(op);
        const Version v = ctx_.mem.allocateVersion();

        // Atomics bypass and clean the L1 so the issuing warp never
        // reads its own stale pre-RMW copy.
        l1_.invalidateLine(acc.lineAddr);

        withSlot([this, w, acc, v, &op]() {
            ctx_.tracker.issued(id_);
            model_.atomic(acc, v,
                          /*done=*/[this, w, &op](Version) {
                if (op.acq && op.scope > Scope::Cta)
                    acquireThenAdvance(w, op);
                else
                    advance(w);
            },
                          /*sys_done=*/[this]() { releaseSlot(); });
        });
    };

    if (op.rel && op.scope > Scope::Cta)
        doRelease(w, op, std::move(body));
    else
        body();
}

// ----------------------------------------------------------------- fences

void
Sm::doAcquire(const WarpPtr &w, const trace::MemOp &op)
{
    acquireThenAdvance(w, op);
}

void
Sm::acquireThenAdvance(const WarpPtr &w, const trace::MemOp &op)
{
    if (op.scope > Scope::Cta && model_.invalidatesL1OnAcquire())
        l1_.invalidateAll();
    model_.acquire(accessFor(op), [this, w]() { advance(w); });
}

void
Sm::doRelease(const WarpPtr &w, const trace::MemOp &op,
              std::function<void()> then)
{
    (void)w;
    model_.release(accessFor(op), std::move(then));
}

// ------------------------------------------------------------ MSHR budget

void
Sm::withSlot(std::function<void()> fn)
{
    if (outstanding_ < ctx_.cfg.smMaxOutstanding) {
        ++outstanding_;
        fn();
    } else {
        slot_waiters_.push_back(std::move(fn));
    }
}

void
Sm::releaseSlot()
{
    hmg_assert(outstanding_ > 0);
    if (!slot_waiters_.empty()) {
        auto fn = std::move(slot_waiters_.front());
        slot_waiters_.pop_front();
        fn();
    } else {
        --outstanding_;
    }
}

// ------------------------------------------------------------ store buffer

void
Sm::sbInsert(Addr line, Version v)
{
    SbEntry &e = store_buffer_[line];
    if (e.version < v)
        e.version = v;
    ++e.refs;
}

void
Sm::sbRemove(Addr line)
{
    SbEntry *e = store_buffer_.find(line);
    hmg_assert(e);
    if (--e->refs == 0)
        store_buffer_.erase(line);
}

const Version *
Sm::sbLookup(Addr line) const
{
    const SbEntry *e = store_buffer_.find(line);
    return e ? &e->version : nullptr;
}

void
Sm::reportStats(StatRecorder &r) const
{
    r.record("ops", static_cast<double>(ops_executed_));
    r.record("loads", static_cast<double>(loads_));
    r.record("stores", static_cast<double>(stores_));
    r.record("atomics", static_cast<double>(atomics_));
    r.record("sb_forwards", static_cast<double>(sb_forwards_));
    l1_.reportStats(r, "l1");
}

} // namespace hmg
