#include "gpu/sm.hh"

#include <utility>

#include "common/log.hh"

namespace hmg
{

Sm::Sm(SystemContext &ctx, CoherenceModel &model, SmId id, TagStore &tags)
    : ctx_(ctx),
      model_(model),
      id_(id),
      gpm_(ctx.cfg.gpmOfSm(id)),
      l1_(ctx.cfg.l1Bytes, ctx.cfg.l1Ways, ctx.cfg.cacheLineBytes,
          /*write_allocate=*/false, tags),
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

namespace
{

/** Take a free slot of `pool`, growing it by one when none is free. */
template <typename T>
std::uint32_t
takeSlot(std::vector<T> &pool, std::vector<std::uint32_t> &free)
{
    if (free.empty()) {
        pool.emplace_back();
        return static_cast<std::uint32_t>(pool.size() - 1);
    }
    const std::uint32_t i = free.back();
    free.pop_back();
    return i;
}

} // namespace

void
Sm::runCta(const trace::Cta &cta, DoneCb on_done)
{
    hmg_assert(canAccept(cta));
    hmg_assert(!cta.warps.empty());

    const std::uint32_t c = takeSlot(ctas_, free_ctas_);
    ctas_[c].remaining = static_cast<std::uint32_t>(cta.warps.size());
    ctas_[c].onDone = std::move(on_done);

    active_warps_ += static_cast<std::uint32_t>(cta.warps.size());
    for (const auto &warp : cta.warps) {
        const WarpSlot w = takeSlot(warps_, free_warps_);
        warps_[w] = WarpCtx{&warp, 0, c, 0, Park::None};
        warpStep(w);
    }
}

// ------------------------------------------------------- warp scheduling

void
Sm::warpStep(WarpSlot w)
{
    WarpCtx &ctx = warps_[w];
    if (ctx.pc >= ctx.warp->ops.size()) {
        // Retire only once every posted load has returned.
        if (ctx.inflight > 0) {
            ctx.park = Park::Retire;
            return;
        }
        finishWarp(w);
        return;
    }
    const trace::MemOp &op = ctx.warp->ops[ctx.pc];
    // Abstract compute before the op, then the shared issue port.
    Tick after_compute = ctx_.engine().now() + op.delay;
    Tick issued = issue_port_.serialize(after_compute, 1);
    ctx_.engine().scheduleAt(issued, [this, w, &op]() { execute(w, op); });
}

void
Sm::advance(WarpSlot w)
{
    ++warps_[w].pc;
    warpStep(w);
}

void
Sm::finishWarp(WarpSlot w)
{
    hmg_assert(active_warps_ > 0);
    --active_warps_;
    const std::uint32_t c = warps_[w].cta;
    warps_[w] = WarpCtx{};
    free_warps_.push_back(w);
    if (--ctas_[c].remaining == 0) {
        // on_done may place the next CTA here and grow the pools.
        DoneCb done = std::move(ctas_[c].onDone);
        free_ctas_.push_back(c);
        done.consume();
    }
}

void
Sm::execute(WarpSlot w, const trace::MemOp &op)
{
    // Structural hazards. Synchronizing ops (atomics, fences,
    // acquire-loads, release-stores) drain the warp's posted loads
    // first; plain loads stall at the per-warp in-flight limit. Either
    // way the warp parks on this op, and the next of its loads to
    // return runs it again (loadCompleted), which may park it anew.
    WarpCtx &ctx = warps_[w];
    const bool needs_drain =
        op.type == MemOpType::Atomic || op.type == MemOpType::AcqFence ||
        op.type == MemOpType::RelFence ||
        (op.type == MemOpType::Load && op.acq &&
         op.scope > Scope::Cta) ||
        (op.type == MemOpType::Store && op.rel && op.scope > Scope::Cta);
    if (needs_drain ? ctx.inflight > 0
                    : op.type == MemOpType::Load &&
                          ctx.inflight >= ctx_.cfg.warpMaxInflightLoads) {
        ctx.park = Park::Rerun;
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
        acquireThenAdvance(w, op);
        break;
      case MemOpType::RelFence:
        doRelease(op, [this, w]() { advance(w); });
        break;
    }
}

// ------------------------------------------------------------------ loads

void
Sm::doLoad(WarpSlot w, const trace::MemOp &op)
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
                    acquireThenAdvance(w, op);
                });
            });
        });
        return;
    }

    // Posted load: the warp continues immediately and only stalls at
    // the in-flight limit or at the next synchronizing op.
    ++warps_[w].inflight;
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
Sm::loadCompleted(WarpSlot w)
{
    WarpCtx &ctx = warps_[w];
    hmg_assert(ctx.inflight > 0);
    --ctx.inflight;
    const Park park = ctx.park;
    ctx.park = Park::None;
    if (park == Park::Retire)
        warpStep(w);
    else if (park == Park::Rerun)
        execute(w, ctx.warp->ops[ctx.pc]);
}

// ----------------------------------------------------------------- stores

void
Sm::doStore(WarpSlot w, const trace::MemOp &op)
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
        doRelease(op, std::move(body));
    else
        body();
}

// ---------------------------------------------------------------- atomics

void
Sm::doAtomic(WarpSlot w, const trace::MemOp &op)
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
        doRelease(op, std::move(body));
    else
        body();
}

// ----------------------------------------------------------------- fences

void
Sm::acquireThenAdvance(WarpSlot w, const trace::MemOp &op)
{
    if (op.scope > Scope::Cta && model_.invalidatesL1OnAcquire())
        l1_.invalidateAll();
    model_.acquire(accessFor(op), [this, w]() { advance(w); });
}

void
Sm::doRelease(const trace::MemOp &op, DoneCb then)
{
    model_.release(accessFor(op), std::move(then));
}

// ------------------------------------------------------------ MSHR budget

void
Sm::withSlot(SlotWaiter fn)
{
    if (outstanding_ < ctx_.cfg.smMaxOutstanding) {
        ++outstanding_;
        fn.consume();
    } else {
        slot_waiters_.push_back(std::move(fn));
    }
}

void
Sm::releaseSlot()
{
    hmg_assert(outstanding_ > 0);
    if (!slot_waiters_.empty()) {
        SlotWaiter fn = std::move(slot_waiters_.front());
        slot_waiters_.pop_front();
        fn.consume();
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
