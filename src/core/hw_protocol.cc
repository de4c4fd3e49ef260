#include "core/hw_protocol.hh"

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "core/checker.hh"
#include "verify/apply.hh"

namespace hmg
{

HwProtocol::HwProtocol(SystemContext &ctx, bool hierarchical)
    : CoherenceModel(ctx), hier_(hierarchical)
{
    for (auto &node : ctx_.gpms)
        hmg_assert(node->dir() != nullptr);
    if (ctx_.cfg.sharerDowngrade || ctx_.cfg.l2WriteBack)
        installEvictionHooks();
}

GpmId
HwProtocol::gpuHomeFor(GpuId gpu, Addr line) const
{
    return hier_ ? ctx_.amap.gpuHome(gpu, line) : ctx_.amap.systemHome(line);
}

GpmId
HwProtocol::nodeHomeFor(NodeId node, Addr line) const
{
    return ctx_.amap.nodeHome(node, line);
}

GpmId
HwProtocol::nodeHopBetween(GpmId from, GpmId h, Addr line) const
{
    if (!multiNode())
        return kInvalidGpm;
    const GpmId nh = nodeHomeFor(ctx_.cfg.nodeOfGpm(from), line);
    return (nh != from && nh != h) ? nh : kInvalidGpm;
}

// ---------------------------------------------------------------- loads

void
HwProtocol::load(const MemAccess &acc, LoadDoneCb done)
{
    ctx_.pages.touch(acc.lineAddr, acc.gpm);
    const GpmId h = sysHome(acc.lineAddr);
    const GpmId gh = gpuHomeFor(ctx_.cfg.gpuOf(acc.gpm), acc.lineAddr);

    // Stage 1: the requester's local L2.
    ctx_.engine().schedule(tagLat(), [this, acc, gh, h,
                                   done = std::move(done)]() mutable {
        if (acc.gpm == h) {
            // Local L2 is the system home; serve authoritatively.
            loadAtSysHome(acc, acc.gpm, h, std::move(done));
            return;
        }
        if (hier_ && acc.gpm == gh) {
            loadAtGpuHome(acc, gh, h, std::move(done));
            return;
        }
        GpmNode &local = ctx_.gpm(acc.gpm);
        const bool mergeable = loadMayHit(acc.scope, CacheRole::NonHome);
        if (mergeable) {
            auto res = local.l2().load(acc.lineAddr);
            if (res.hit) {
                ++loads_local_hit_;
                ctx_.engine().schedule(dataLat(),
                                     [done = std::move(done),
                                      v = res.version]() mutable {
                    done(v);
                });
                return;
            }
            // Coalesce with an in-flight miss on the same line.
            if (!local.mshrRegister(acc.lineAddr, std::move(done)))
                return;
        }
        // Requester-side completion: fill the local L2 and wake every
        // merged requester (or answer the single non-mergeable one).
        LoadDoneCb finish;
        if (mergeable) {
            finish = [this, acc](Version v) {
                GpmNode &n = ctx_.gpm(acc.gpm);
                n.l2().fill(acc.lineAddr, v);
                n.mshrComplete(acc.lineAddr, v);
            };
        } else {
            finish = [this, acc, done = std::move(done)](Version v) mutable {
                ctx_.gpm(acc.gpm).l2().fill(acc.lineAddr, v);
                done(v);
            };
        }

        const GpmId next = hier_ ? gh : h;
        ctx_.net.inject(
            {.src = acc.gpm,
             .dst = next,
             .type = MsgType::ReadReq,
             .addr = acc.lineAddr,
             .onArrival = [this, acc, gh, h,
                           finish = std::move(finish)]() mutable {
                 if (hier_ && gh != h) {
                     loadAtGpuHome(acc, gh, h, std::move(finish));
                 } else {
                     // Flat protocol, or the GPU home *is* the system
                     // home: serve at h and ship the line straight back.
                     loadAtSysHome(
                         acc, acc.gpm, h,
                         [this, acc, h,
                          finish = std::move(finish)](Version v) mutable {
                             ctx_.net.inject(
                                 {.src = h,
                                  .dst = acc.gpm,
                                  .type = MsgType::ReadResp,
                                  .addr = acc.lineAddr,
                                  .onArrival =
                                      [v, finish = std::move(finish)]()
                                          mutable { finish(v); }});
                         });
                 }
             }});
    });
}

void
HwProtocol::loadAtGpuHome(MemAccess acc, GpmId gh, GpmId h, LoadDoneCb done)
{
    hmg_assert(hier_ && gh != h);

    // Deliver the final value from gh back to the requesting GPM. The
    // caller-provided `done` performs any requester-side fill.
    auto respond = [this, acc, gh,
                    done = std::move(done)](Version v) mutable {
        if (acc.gpm == gh) {
            done(v);
            return;
        }
        applyDirEventAt(dirTableFor(gh, acc.lineAddr), gh, acc.gpm,
                        acc.lineAddr, verify::DirEvent::LoadMiss, nullptr);
        ctx_.net.inject({.src = gh,
                         .dst = acc.gpm,
                         .type = MsgType::ReadResp,
                         .addr = acc.lineAddr,
                         .onArrival = [v, done = std::move(done)]() mutable {
                             done(v);
                         }});
    };

    ctx_.engine().schedule(tagLat(), [this, acc, gh, h,
                                   respond = std::move(respond)]() mutable {
        GpmNode &home = ctx_.gpm(gh);
        const bool mergeable = loadMayHit(acc.scope, CacheRole::GpuHome);
        if (mergeable) {
            auto res = home.l2().load(acc.lineAddr);
            if (res.hit) {
                ++loads_gpu_home_hit_;
                ctx_.engine().schedule(dataLat(),
                                     [respond = std::move(respond),
                                      v = res.version]() mutable {
                    respond(v);
                });
                return;
            }
            if (!home.mshrRegister(acc.lineAddr, std::move(respond)))
                return;
        }
        // Miss at the GPU home: consult the next home up the chain —
        // the node home when one stands strictly between (cross-node
        // leg), else the system home. Only the GPU identity travels
        // onward (Section V-B, "Loads"). When the miss merged into the
        // MSHR above, `respond` is already parked there and the
        // moved-from callback travelling below stays unused.
        auto fill = [this, acc, gh, mergeable,
                     respond = std::move(respond)](Version v) mutable {
            GpmNode &home = ctx_.gpm(gh);
            home.l2().fill(acc.lineAddr, v);
            if (mergeable)
                home.mshrComplete(acc.lineAddr, v);
            else
                respond(v);
        };
        const GpmId nh = nodeHopBetween(gh, h, acc.lineAddr);
        if (nh != kInvalidGpm) {
            ctx_.net.inject(
                {.src = gh,
                 .dst = nh,
                 .type = MsgType::ReadReq,
                 .addr = acc.lineAddr,
                 .onArrival = [this, acc, gh, nh, h,
                               fill = std::move(fill)]() mutable {
                     loadAtNodeHome(acc, gh, nh, h, std::move(fill));
                 }});
            return;
        }
        ctx_.net.inject(
            {.src = gh,
             .dst = h,
             .type = MsgType::ReadReq,
             .addr = acc.lineAddr,
             .onArrival = [this, acc, gh, h,
                           fill = std::move(fill)]() mutable {
                 loadAtSysHome(
                     acc, gh, h,
                     [this, acc, gh, h,
                      fill = std::move(fill)](Version v) mutable {
                         ctx_.net.inject(
                             {.src = h,
                              .dst = gh,
                              .type = MsgType::ReadResp,
                              .addr = acc.lineAddr,
                              .onArrival =
                                  [v, fill = std::move(fill)]() mutable {
                                      fill(v);
                                  }});
                     });
             }});
    });
}

void
HwProtocol::loadAtNodeHome(MemAccess acc, GpmId via, GpmId nh, GpmId h,
                           LoadDoneCb done)
{
    hmg_assert(multiNode() && nh != h && via != nh);

    // Deliver the final value from nh back to `via` (the consulting GPU
    // home, or a GPU home fetching for an atomic). The sharer is
    // recorded in the same event that emits the response, for the same
    // overtaking-invalidation reason loadAtSysHome documents.
    auto respond = [this, acc, via, nh,
                    done = std::move(done)](Version v) mutable {
        applyDirEventAt(dirTableFor(nh, acc.lineAddr), nh, via,
                        acc.lineAddr, verify::DirEvent::LoadMiss, nullptr);
        ctx_.net.inject({.src = nh,
                         .dst = via,
                         .type = MsgType::ReadResp,
                         .addr = acc.lineAddr,
                         .onArrival = [v, done = std::move(done)]() mutable {
                             done(v);
                         }});
    };

    ctx_.engine().schedule(tagLat(), [this, acc, nh, h,
                                   respond = std::move(respond)]() mutable {
        GpmNode &home = ctx_.gpm(nh);
        // The node home may answer anything below `.sys` scope: the
        // per-(src, dst) FIFO channels gh -> nh and nh -> h order its
        // copy after any write-through it forwarded, so a `.gpu`-scope
        // load observes every store its own GPU released.
        const bool mergeable = loadMayHit(acc.scope, CacheRole::GpuHome);
        if (mergeable) {
            auto res = home.l2().load(acc.lineAddr);
            if (res.hit) {
                ++loads_node_home_hit_;
                ctx_.engine().schedule(dataLat(),
                                     [respond = std::move(respond),
                                      v = res.version]() mutable {
                    respond(v);
                });
                return;
            }
            if (!home.mshrRegister(acc.lineAddr, std::move(respond)))
                return;
        }
        // Miss at the node home: consult the system home. Only the node
        // identity travels onward.
        ctx_.net.inject(
            {.src = nh,
             .dst = h,
             .type = MsgType::ReadReq,
             .addr = acc.lineAddr,
             .onArrival = [this, acc, nh, h, mergeable,
                           respond = std::move(respond)]() mutable {
                 loadAtSysHome(
                     acc, nh, h,
                     [this, acc, nh, h, mergeable,
                      respond = std::move(respond)](Version v) mutable {
                         ctx_.net.inject(
                             {.src = h,
                              .dst = nh,
                              .type = MsgType::ReadResp,
                              .addr = acc.lineAddr,
                              .onArrival =
                                  [this, acc, nh, v, mergeable,
                                   respond =
                                       std::move(respond)]() mutable {
                                      GpmNode &home = ctx_.gpm(nh);
                                      home.l2().fill(acc.lineAddr, v);
                                      if (mergeable)
                                          home.mshrComplete(acc.lineAddr,
                                                            v);
                                      else
                                          respond(v);
                                  }});
                     });
             }});
    });
}

void
HwProtocol::loadAtSysHome(MemAccess acc, GpmId via, GpmId h,
                          LoadDoneCb respond)
{
    // The sharer is recorded in the same event that emits the response,
    // not at request arrival: a store processed while this load waits
    // on DRAM would otherwise reset the sharer list and let its
    // invalidation overtake the response, leaving an untracked stale
    // copy at the requester.
    if (via != h) {
        respond = [this, acc, via, h,
                   inner = std::move(respond)](Version v) mutable {
            applyDirEventAt(dirTableFor(h, acc.lineAddr), h, via,
                            acc.lineAddr, verify::DirEvent::LoadMiss,
                            nullptr);
            inner(v);
        };
    }
    ctx_.engine().schedule(tagLat(), [this, acc, h,
                                   respond = std::move(respond)]() mutable {
        GpmNode &home = ctx_.gpm(h);
        auto res = home.l2().load(acc.lineAddr);
        if (res.hit) {
            ++loads_sys_home_hit_;
            ctx_.engine().schedule(dataLat(),
                                 [respond = std::move(respond),
                                  v = res.version]() mutable {
                respond(v);
            });
            return;
        }
        // Coalesce concurrent DRAM fetches of the same line.
        if (!home.mshrRegister(acc.lineAddr, std::move(respond)))
            return;
        ++loads_dram_;
        Tick ready = home.dram().read(ctx_.cfg.cacheLineBytes);
        ctx_.engine().scheduleAt(ready, [this, acc, h]() {
            Version v = ctx_.mem.read(acc.lineAddr);
            GpmNode &home = ctx_.gpm(h);
            home.l2().fill(acc.lineAddr, v);
            home.mshrComplete(acc.lineAddr, v);
        });
    });
}

// ---------------------------------------------------------------- stores

void
HwProtocol::store(const MemAccess &acc, Version v, DoneCb accepted,
                  DoneCb sys_done)
{
    ctx_.pages.touch(acc.lineAddr, acc.gpm);
    const GpmId h = sysHome(acc.lineAddr);
    const GpmId gh = gpuHomeFor(ctx_.cfg.gpuOf(acc.gpm), acc.lineAddr);

    if (writeBack() && acc.scope <= Scope::Cta) {
        // Write-back mode: the store completes in the local L2 as dirty
        // data; it reaches the home when a release, kernel boundary,
        // eviction or invalidation flushes it.
        ctx_.engine().schedule(tagLat(), [this, acc, v,
                                        accepted = std::move(accepted),
                                        sys_done =
                                            std::move(sys_done)]() mutable {
            ctx_.gpm(acc.gpm).l2().store(acc.lineAddr, v,
                                         /*mark_dirty=*/true);
            accepted();
            ctx_.tracker.reachedGpuLevel(acc.sm);
            ctx_.tracker.reachedSysLevel(acc.sm);
            if (sys_done)
                sys_done();
        });
        return;
    }

    StoreFlow f{acc, v, std::move(sys_done), false, true, true};

    ctx_.engine().schedule(tagLat(), [this, f = std::move(f), gh, h,
                                   accepted =
                                       std::move(accepted)]() mutable {
        // Write-through: update (and allocate in) the local L2.
        ctx_.gpm(f.acc.gpm).l2().store(f.acc.lineAddr, f.v);
        accepted();
        if (hier_) {
            if (f.acc.gpm == gh) {
                storeAtGpuHome(std::move(f), gh, h);
            } else {
                const GpmId src = f.acc.gpm;
                const Addr line = f.acc.lineAddr;
                ctx_.net.inject(
                    {.src = src,
                     .dst = gh,
                     .type = MsgType::WriteThrough,
                     .addr = line,
                     .onArrival = [this, f = std::move(f), gh,
                                   h]() mutable {
                         storeAtGpuHome(std::move(f), gh, h);
                     }});
            }
        } else {
            const GpmId src = f.acc.gpm;
            if (src == h) {
                storeAtSysHome(std::move(f), src, h);
            } else {
                const Addr line = f.acc.lineAddr;
                ctx_.net.inject(
                    {.src = src,
                     .dst = h,
                     .type = MsgType::WriteThrough,
                     .addr = line,
                     .onArrival = [this, f = std::move(f), src,
                                   h]() mutable {
                         storeAtSysHome(std::move(f), src, h);
                     }});
            }
        }
    });
}

void
HwProtocol::storeAtGpuHome(StoreFlow f, GpmId gh, GpmId h)
{
    hmg_assert(hier_);
    if (gh == h) {
        // Home roles coincide; the system-home stage handles everything.
        const GpmId src = f.acc.gpm;
        storeAtSysHome(std::move(f), src, h);
        return;
    }
    GpmNode &home = ctx_.gpm(gh);
    home.l2().store(f.acc.lineAddr, f.v, /*mark_dirty=*/false,
                    f.serialized);

    applyDirEventAt(dirTableFor(gh, f.acc.lineAddr), gh,
                    f.recordWriter ? f.acc.gpm : kInvalidGpm,
                    f.acc.lineAddr, verify::DirEvent::Store,
                    makeInvJob(/*from_store=*/true));

    if (f.tracked)
        ctx_.tracker.reachedGpuLevel(f.acc.sm);
    f.gpuCleared = true;

    forwardStoreUp(std::move(f), gh, h);
}

void
HwProtocol::forwardStoreUp(StoreFlow f, GpmId from, GpmId h)
{
    const Addr line = f.acc.lineAddr;
    const GpmId nh = nodeHopBetween(from, h, line);
    if (nh != kInvalidGpm) {
        ctx_.net.inject({.src = from,
                         .dst = nh,
                         .type = MsgType::WriteThrough,
                         .addr = line,
                         .onArrival = [this, f = std::move(f), from, nh,
                                       h]() mutable {
                             storeAtNodeHome(std::move(f), from, nh, h);
                         }});
        return;
    }
    ctx_.net.inject({.src = from,
                     .dst = h,
                     .type = MsgType::WriteThrough,
                     .addr = line,
                     .onArrival = [this, f = std::move(f), from,
                                   h]() mutable {
                         storeAtSysHome(std::move(f), from, h);
                     }});
}

void
HwProtocol::storeAtNodeHome(StoreFlow f, GpmId via, GpmId nh, GpmId h)
{
    hmg_assert(multiNode() && nh != h && via != nh);
    GpmNode &home = ctx_.gpm(nh);
    home.l2().store(f.acc.lineAddr, f.v, /*mark_dirty=*/false,
                    f.serialized);

    applyDirEventAt(dirTableFor(nh, f.acc.lineAddr), nh,
                    f.recordWriter ? via : kInvalidGpm,
                    f.acc.lineAddr, verify::DirEvent::Store,
                    makeInvJob(/*from_store=*/true));

    // No tracker level corresponds to the node tier: the extra hop only
    // delays reachedSysLevel, which storeAtSysHome signals.
    const Addr line = f.acc.lineAddr;
    ctx_.net.inject({.src = nh,
                     .dst = h,
                     .type = MsgType::WriteThrough,
                     .addr = line,
                     .onArrival = [this, f = std::move(f), nh,
                                   h]() mutable {
                         storeAtSysHome(std::move(f), nh, h);
                     }});
}

void
HwProtocol::storeAtSysHome(StoreFlow f, GpmId via, GpmId h)
{
    GpmNode &home = ctx_.gpm(h);
    home.l2().store(f.acc.lineAddr, f.v, /*mark_dirty=*/false,
                    f.serialized);
    ctx_.mem.write(f.acc.lineAddr, f.v, f.serialized);
    home.dram().write(ctx_.cfg.cacheLineBytes);

    applyDirEventAt(dirTableFor(h, f.acc.lineAddr), h,
                    f.recordWriter ? via : kInvalidGpm, f.acc.lineAddr,
                    verify::DirEvent::Store,
                    makeInvJob(/*from_store=*/true));

    // Tracker state and the sys-done continuation belong to the
    // requester's SM; when the system home lives in another LP, hand
    // them back to the owning LP (immediate call otherwise).
    if (f.tracked || f.sysDone) {
        ctx_.lps.post(ctx_.lps.lpOfGpm(f.acc.gpm),
                      [this, tracked = f.tracked,
                       gpu_cleared = f.gpuCleared, sm = f.acc.sm,
                       sys_done = std::move(f.sysDone)]() mutable {
                          if (tracked) {
                              if (!gpu_cleared)
                                  ctx_.tracker.reachedGpuLevel(sm);
                              ctx_.tracker.reachedSysLevel(sm);
                          }
                          if (sys_done)
                              sys_done();
                      });
    }
}

// --------------------------------------------------------------- atomics

void
HwProtocol::atomic(const MemAccess &acc, Version v, LoadDoneCb done,
                   DoneCb sys_done)
{
    ctx_.pages.touch(acc.lineAddr, acc.gpm);
    const GpmId h = sysHome(acc.lineAddr);
    const GpmId gh = gpuHomeFor(ctx_.cfg.gpuOf(acc.gpm), acc.lineAddr);

    // Performed at the home node for the scope in question (Section
    // V-B); NHCC always uses the (single) home node (Section IV-B).
    const GpmId target = (hier_ && acc.scope <= Scope::Gpu) ? gh : h;

    if (target == acc.gpm) {
        atomicAtHome(acc, target, h, v, std::move(done),
                     std::move(sys_done));
    } else {
        ctx_.net.inject(
            {.src = acc.gpm,
             .dst = target,
             .type = MsgType::AtomicReq,
             .addr = acc.lineAddr,
             .onArrival = [this, acc, target, h, v,
                           done = std::move(done),
                           sys_done = std::move(sys_done)]() mutable {
                 atomicAtHome(acc, target, h, v, std::move(done),
                              std::move(sys_done));
             }});
    }
}

void
HwProtocol::atomicAtHome(MemAccess acc, GpmId target, GpmId h, Version v,
                         LoadDoneCb done, DoneCb sys_done)
{
    ctx_.engine().schedule(tagLat(), [this, acc, target, h, v,
                                   done = std::move(done),
                                   sys_done = std::move(sys_done)]() mutable {
        GpmNode &node = ctx_.gpm(target);
        auto res = node.l2().load(acc.lineAddr);
        if (res.hit) {
            atomicPerform(acc, target, h, v, res.version, std::move(done),
                          std::move(sys_done));
            return;
        }
        if (target == h) {
            // Home misses go to local DRAM.
            Tick ready = node.dram().read(ctx_.cfg.cacheLineBytes);
            ctx_.engine().scheduleAt(ready, [this, acc, target, h, v,
                                           done = std::move(done),
                                           sys_done =
                                               std::move(sys_done)]() mutable {
                Version old_v = ctx_.mem.read(acc.lineAddr);
                atomicPerform(acc, target, h, v, old_v, std::move(done),
                              std::move(sys_done));
            });
            return;
        }
        // A GPU home without the line fetches it from the next home up
        // (recording itself as a sharer at every tier it crosses), then
        // performs the RMW locally.
        auto perform = [this, acc, target, h, v, done = std::move(done),
                        sys_done =
                            std::move(sys_done)](Version old_v) mutable {
            ctx_.gpm(target).l2().fill(acc.lineAddr, old_v);
            atomicPerform(acc, target, h, v, old_v, std::move(done),
                          std::move(sys_done));
        };
        const GpmId nh = nodeHopBetween(target, h, acc.lineAddr);
        if (nh != kInvalidGpm) {
            ctx_.net.inject(
                {.src = target,
                 .dst = nh,
                 .type = MsgType::ReadReq,
                 .addr = acc.lineAddr,
                 .onArrival = [this, acc, target, nh, h,
                               perform = std::move(perform)]() mutable {
                     loadAtNodeHome(acc, target, nh, h,
                                    std::move(perform));
                 }});
            return;
        }
        ctx_.net.inject(
            {.src = target,
             .dst = h,
             .type = MsgType::ReadReq,
             .addr = acc.lineAddr,
             .onArrival = [this, acc, target, h,
                           perform = std::move(perform)]() mutable {
                 loadAtSysHome(
                     acc, target, h,
                     [this, acc, target, h,
                      perform = std::move(perform)](Version old_v) mutable {
                         ctx_.net.inject(
                             {.src = h,
                              .dst = target,
                              .type = MsgType::ReadResp,
                              .addr = acc.lineAddr,
                              .onArrival =
                                  [old_v, perform = std::move(
                                              perform)]() mutable {
                                      perform(old_v);
                                  }});
                     });
             }});
    });
}

void
HwProtocol::atomicPerform(MemAccess acc, GpmId target, GpmId h, Version v,
                          Version old_v, LoadDoneCb done, DoneCb sys_done)
{
    GpmNode &node = ctx_.gpm(target);
    // The RMW serializes at `target`: its copy takes the arrival order.
    node.l2().store(acc.lineAddr, v, /*mark_dirty=*/false,
                    /*serialized=*/true);

    // Coherence-wise an atomic is a store with no tracked writer:
    // invalidate every sharer (including the requester's stale copy —
    // atomics do not refresh the requester's own L2).
    applyDirEventAt(dirTableFor(target, acc.lineAddr), target,
                    kInvalidGpm, acc.lineAddr, verify::DirEvent::Store,
                    makeInvJob(/*from_store=*/true));

    // Return the pre-op value to the requester.
    if (target == acc.gpm) {
        done(old_v);
    } else {
        ctx_.net.inject({.src = target,
                         .dst = acc.gpm,
                         .type = MsgType::AtomicResp,
                         .addr = acc.lineAddr,
                         .onArrival = [done = std::move(done),
                                       old_v]() mutable {
                             done(old_v);
                         }});
    }

    // Write the result onward, exactly as a store from `target` would
    // propagate (Section V-B, "Atomics and Reductions").
    StoreFlow f{acc, v, std::move(sys_done), false, false, true};
    if (target == h) {
        ctx_.mem.write(acc.lineAddr, v);
        node.dram().write(ctx_.cfg.cacheLineBytes);
        // recordSharer: the performing node is the home itself. Tracker
        // and sys-done run in the requester's LP (see storeAtSysHome).
        ctx_.lps.post(ctx_.lps.lpOfGpm(acc.gpm),
                      [this, sm = acc.sm,
                       sys_done = std::move(f.sysDone)]() mutable {
                          ctx_.tracker.reachedGpuLevel(sm);
                          ctx_.tracker.reachedSysLevel(sm);
                          if (sys_done)
                              sys_done();
                      });
        return;
    }
    ctx_.tracker.reachedGpuLevel(acc.sm);
    f.gpuCleared = true;
    // The performing GPU home keeps a fresh copy: it must stay a sharer
    // at the system home, so the write-through names the GPU home as the
    // node to record — routed via the node home on a cross-node leg so
    // every tier of the chain tracks the copy.
    f.recordWriter = true;
    forwardStoreUp(std::move(f), target, h);
}

// --------------------------------------------------- directory plumbing

const verify::TransitionTable &
HwProtocol::dirTableFor(GpmId h, Addr line) const
{
    using verify::Role;
    if (!hier_)
        return verify::tableFor(Role::FlatHome);
    if (h == sysHome(line))
        return verify::tableFor(Role::SysHome);
    if (multiNode() && h == nodeHomeFor(ctx_.cfg.nodeOfGpm(h), line))
        return verify::tableFor(Role::NodeHome);
    return verify::tableFor(Role::GpuHome);
}

const verify::Transition *
HwProtocol::applyDirEventAt(const verify::TransitionTable &t, GpmId h,
                            GpmId via, Addr line, verify::DirEvent ev,
                            const InvJobPtr &job)
{
    using verify::DirEvent;
    using verify::DirUpdate;
    Directory &dir = *ctx_.gpm(h).dir();
    const Addr sector = dir.sectorOf(line);

    // Sharer recording on a load never counted as a directory lookup;
    // every other event pays the find() that gated it imperatively.
    DirEntry *e = nullptr;
    const DirEntry *snap = nullptr;
    if (ev == DirEvent::LoadMiss)
        snap = dir.peek(line);
    else
        snap = e = dir.find(line);
    const verify::DirSnapshot pre{snap != nullptr,
                                  snap ? snap->gpmSharers : 0,
                                  snap ? snap->gpuSharers : 0,
                                  snap ? snap->nodeSharers : 0};

    auto outcome = verify::applyDirEvent(
        t, topo(), hier_, h, via, ev, pre,
        [this, sector](GpuId g) { return gpuHomeFor(g, sector); },
        [this, sector](NodeId n) { return nodeHomeFor(n, sector); },
        [&](GpmId dst) { sendInv(h, dst, sector, job); });

    if (!outcome.keepEntry) {
        // An entry whose sharers were all downgraded away carries no
        // obligations; a store leaves it in place (same occupancy the
        // imperative code kept). A processed re-fan always drops its.
        if (e && (ev == DirEvent::InvRecv || pre.gpmBits || pre.gpuBits ||
                  pre.nodeBits))
            dir.remove(line);
        return outcome.row;
    }
    switch (outcome.row->update) {
      case DirUpdate::None:
      case DirUpdate::Clear:
        break;
      case DirUpdate::DropSharer:
        if (e) {
            e->gpmSharers = outcome.gpmBits;
            e->gpuSharers = outcome.gpuBits;
            e->nodeSharers = outcome.nodeBits;
        }
        break;
      case DirUpdate::SetSoleSharer:
        if (e && e->hasSharers())
            dir.remove(line);
        [[fallthrough]];
      case DirUpdate::AddSharer: {
        std::optional<DirEntry> evicted;
        DirEntry *ne = dir.allocate(line, &evicted);
        if (evicted && evicted->hasSharers())
            replaceVictim(h, *evicted);
        ne->gpmSharers = outcome.gpmBits;
        ne->gpuSharers = outcome.gpuBits;
        ne->nodeSharers = outcome.nodeBits;
        break;
      }
    }
    return outcome.row;
}

void
HwProtocol::replaceVictim(GpmId h, const DirEntry &victim)
{
    auto job = makeInvJob(/*from_store=*/false);
    const Addr sector = victim.sector;
    const verify::DirSnapshot pre{true, victim.gpmSharers,
                                  victim.gpuSharers, victim.nodeSharers};
    // The victim is already detached from the directory, so the row's
    // Invalid next-state needs no commit — only its invalidation fan.
    verify::applyDirEvent(
        dirTableFor(h, sector), topo(), hier_, h, kInvalidGpm,
        verify::DirEvent::Replace, pre,
        [this, sector](GpuId g) { return gpuHomeFor(g, sector); },
        [this, sector](NodeId n) { return nodeHomeFor(n, sector); },
        [&](GpmId dst) { sendInv(h, dst, sector, job); });
}

void
HwProtocol::sendInv(GpmId from, GpmId to, Addr sector, InvJobPtr job)
{
    ++inv_msgs_;
    {
        // A GPU-home re-fan grows a job another LP may be finishing.
        MaybeLock lock(ctx_.lps);
        ++job->pending;
    }
    // The sender's in-flight-invalidation ledger gates release-marker
    // acknowledgment (GpmNode::waitInvDrained); the landing is counted
    // before handleInv so a re-fanned invalidation issued there can
    // never observe its trigger as still in flight. The checker's
    // delivery note comes after handleInv for the same reason: a
    // re-fanned wave must overlap its trigger in the per-sector count.
    ctx_.gpm(from).invIssued();
    if (ctx_.checker)
        ctx_.checker->noteInvSent(sector);
    ctx_.net.inject({.src = from,
                     .dst = to,
                     .type = MsgType::Inv,
                     .addr = sector,
                     .onArrival = [this, from, to, sector, job]() {
                         // The sender's ledger belongs to `from`'s LP;
                         // a delayed decrement only lengthens marker
                         // waits (delay-only relaxation).
                         ctx_.lps.post(ctx_.lps.lpOfGpm(from),
                                       [this, from]() {
                                           ctx_.gpm(from).invLanded();
                                       });
                         handleInv(to, sector, job);
                         if (ctx_.checker)
                             ctx_.checker->noteInvDelivered(sector);
                     }});
}

void
HwProtocol::handleInv(GpmId at, Addr sector, InvJobPtr job)
{
    GpmNode &node = ctx_.gpm(at);
    const std::uint32_t sector_bytes = node.dir()->sectorBytes();
    std::uint64_t lines;
    if (writeBack()) {
        // An invalidated dirty line carries the newest write: send it
        // home (update-only) rather than losing it to the race.
        std::vector<CacheLine> dropped;
        lines = node.l2().invalidateRangeCollect(sector, sector_bytes,
                                                 dropped);
        for (const auto &line : dropped)
            if (line.dirty)
                writeBackLine(at, line.addr, line.version,
                              /*record=*/false);
    } else {
        lines = node.l2().invalidateRange(sector, sector_bytes);
    }

    if (hier_) {
        // The HMG-only transition of Table I: an intermediate home
        // receiving an invalidation re-fans it one tier down and drops
        // the entry. dirTableFor resolves whether `at` plays the GPU-
        // home or node-home role here; a node home's single entry
        // covers both of its roles, so it applies exactly one InvRecv.
        // The system home never receives an invalidation for a sector
        // it homes (every fan excludes it), so the guard below never
        // sees at == sysHome.
        const GpuId g = ctx_.cfg.gpuOf(at);
        if (ctx_.pages.isPlaced(sector) && gpuHomeFor(g, sector) == at &&
            at != sysHome(sector))
            applyDirEventAt(dirTableFor(at, sector), at, kInvalidGpm,
                            sector, verify::DirEvent::InvRecv, job);
    }
    finishInvMsg(job, lines);
}

// -------------------------------------------------------- acquire/release

void
HwProtocol::acquire(const MemAccess &acc, DoneCb done)
{
    // Hardware L2 coherence: acquires only invalidate the L1 (done by
    // the SM front-end). A cycle of fence bookkeeping.
    (void)acc;
    ctx_.engine().schedule(1, std::move(done));
}

void
HwProtocol::release(const MemAccess &acc, DoneCb done)
{
    ++releases_;
    if (acc.scope <= Scope::Cta) {
        // Intra-SM visibility is immediate through the shared L1.
        ctx_.engine().schedule(1, std::move(done));
        return;
    }

    const GpmId r = acc.gpm;
    const GpuId g = ctx_.cfg.gpuOf(r);

    std::vector<GpmId> targets;
    if (hier_ && acc.scope == Scope::Gpu) {
        for (std::uint32_t l = 0; l < ctx_.cfg.gpmsPerGpu; ++l) {
            GpmId d = ctx_.cfg.gpmId(g, l);
            if (d != r)
                targets.push_back(d);
        }
    } else {
        for (GpmId d = 0; d < ctx_.cfg.totalGpms(); ++d)
            if (d != r)
                targets.push_back(d);
    }

    // HMG `.sys` releases need one marker round per invalidation wave:
    // round one drains the system homes' top-level invalidations into
    // the homes one tier down; each further round drains one re-fanned
    // wave (GPU homes' GPM fans; with a live node tier, the node homes'
    // re-fans add a wave of their own).
    const int rounds = (hier_ && acc.scope == Scope::Sys)
                           ? (multiNode() ? 3 : 2)
                           : 1;

    const bool relayed =
        hier_ && acc.scope == Scope::Sys &&
        ctx_.cfg.hierarchicalReleaseFanout;

    auto one_round = [this, r, targets, relayed](DoneCb then) {
        if (relayed)
            markerRoundRelayed(r, std::move(then));
        else
            markerRound(r, targets, std::move(then));
    };

    auto after_drain = [one_round, rounds,
                        done = std::move(done)]() mutable {
        DoneCb next = std::move(done);
        for (int i = 1; i < rounds; ++i)
            next = [one_round, next = std::move(next)]() mutable {
                one_round(std::move(next));
            };
        one_round(std::move(next));
    };

    // Write-back mode: "Release operations trigger a writeback of all
    // dirty data to the respective home nodes" (Section IV-B) — flush
    // the releasing GPM's dirty lines, then wait for both the SM's
    // write-throughs and this GPM's in-flight write-backs.
    if (writeBack()) {
        // Only after the SM's posted stores have landed in the local L2
        // (tracker drained) is its dirty set final: flush it, then wait
        // for this GPM's in-flight write-backs.
        auto flush_then_wait = [this, r, after_drain =
                                             std::move(after_drain)]() mutable {
            flushDirty(r);
            ctx_.gpm(r).waitWbDrained(std::move(after_drain));
        };
        if (hier_ && acc.scope == Scope::Gpu)
            ctx_.tracker.waitGpuLevel(acc.sm, std::move(flush_then_wait));
        else
            ctx_.tracker.waitSysLevel(acc.sm,
                                      std::move(flush_then_wait));
        return;
    }

    if (hier_ && acc.scope == Scope::Gpu)
        ctx_.tracker.waitGpuLevel(acc.sm, std::move(after_drain));
    else
        ctx_.tracker.waitSysLevel(acc.sm, std::move(after_drain));
}

void
HwProtocol::drainForBoundary(DoneCb done)
{
    if (!writeBack()) {
        ctx_.tracker.waitAllDrained(std::move(done));
        return;
    }
    // Order matters: only once every SM's posted stores have landed in
    // their L2s (tracker drained) is the dirty set final; then flush it
    // and wait for the write-back ledgers to empty. Each GPM's flush
    // touches its own L2, so it runs in the GPM's owning LP; the join
    // counter lives on LP 0 and every decrement is posted back there.
    // (A self-referential callback chain would leak: a std::function
    // capturing its own shared_ptr is a reference cycle — hence the
    // shared counter join.)
    ctx_.tracker.waitAllDrained([this, done = std::move(done)]() mutable {
        auto pending =
            std::make_shared<std::uint32_t>(ctx_.cfg.totalGpms());
        auto done_p = std::make_shared<DoneCb>(std::move(done));
        for (GpmId g = 0; g < ctx_.cfg.totalGpms(); ++g) {
            ctx_.lps.post(ctx_.lps.lpOfGpm(g),
                          [this, g, pending, done_p]() {
                flushDirty(g);
                ctx_.gpm(g).waitWbDrained([this, pending, done_p]() {
                    ctx_.lps.post(0, [pending, done_p]() {
                        if (--*pending == 0)
                            (*done_p)();
                    });
                });
            });
        }
    });
}

std::uint64_t
HwProtocol::flushDirty(GpmId g)
{
    return ctx_.gpm(g).l2().flushDirty([this, g](CacheLine line) {
        writeBackLine(g, line.addr, line.version, /*record=*/true);
    });
}

void
HwProtocol::writeBackLine(GpmId src, Addr line, Version v, bool record)
{
    GpmNode &node = ctx_.gpm(src);
    node.wbIssued();

    const GpmId h = sysHome(line);
    const GpmId gh = gpuHomeFor(ctx_.cfg.gpuOf(src), line);

    StoreFlow f;
    f.acc = MemAccess{0, src, line, Scope::None};
    f.v = v;
    f.recordWriter = record;
    f.tracked = false;
    // A dirty victim was coherence-ordered by its original local store,
    // not by this flush's arrival at the home: never clobber newer data.
    f.serialized = false;
    f.sysDone = [this, src]() { ctx_.gpm(src).wbLanded(); };

    if (hier_) {
        if (src == gh)
            storeAtGpuHome(std::move(f), gh, h);
        else
            ctx_.net.inject({.src = src,
                             .dst = gh,
                             .type = MsgType::WriteThrough,
                             .addr = line,
                             .onArrival = [this, f = std::move(f), gh,
                                           h]() mutable {
                                 storeAtGpuHome(std::move(f), gh, h);
                             }});
    } else {
        if (src == h)
            storeAtSysHome(std::move(f), src, h);
        else
            ctx_.net.inject({.src = src,
                             .dst = h,
                             .type = MsgType::WriteThrough,
                             .addr = line,
                             .onArrival = [this, f = std::move(f), src,
                                           h]() mutable {
                                 storeAtSysHome(std::move(f), src, h);
                             }});
    }
}

void
HwProtocol::markerRound(GpmId r, const std::vector<GpmId> &targets,
                        DoneCb done)
{
    // `done` fans into many continuations, so it moves into shared
    // storage and the per-target completion stays copyable.
    auto pending = std::make_shared<std::uint32_t>(
        static_cast<std::uint32_t>(targets.size()) + 1);
    auto done_p = std::make_shared<DoneCb>(std::move(done));
    auto one_done = [pending, done_p]() {
        if (--*pending == 0)
            (*done_p)();
    };

    // The releasing GPM's own outbound invalidations must land too.
    ctx_.gpm(r).waitInvDrained(one_done);

    for (GpmId dst : targets) {
        ++rel_markers_;
        ctx_.net.inject(
            {.src = r,
             .dst = dst,
             .type = MsgType::RelMarker,
             .onArrival = [this, r, dst, one_done]() {
                 // FIFO transport guarantees every invalidation `dst`
                 // received before this marker has been handled; the
                 // ledger wait covers the ones `dst` itself still has
                 // in flight.
                 ctx_.gpm(dst).waitInvDrained([this, r, dst, one_done]() {
                     ctx_.net.inject({.src = dst,
                                      .dst = r,
                                      .type = MsgType::RelAck,
                                      .onArrival = one_done});
                 });
             }});
    }
}

void
HwProtocol::markerRoundRelayed(GpmId r, DoneCb done)
{
    const GpuId g = ctx_.cfg.gpuOf(r);
    const std::uint32_t m = ctx_.cfg.gpmsPerGpu;

    // Own GPU's GPMs are reached directly; each remote GPU gets one
    // relay (the GPM with r's local index).
    std::vector<GpmId> direct;
    for (std::uint32_t l = 0; l < m; ++l)
        if (ctx_.cfg.gpmId(g, l) != r)
            direct.push_back(ctx_.cfg.gpmId(g, l));
    std::vector<GpmId> relays;
    for (GpuId u = 0; u < ctx_.cfg.numGpus; ++u)
        if (u != g)
            relays.push_back(ctx_.cfg.gpmId(u, ctx_.cfg.localGpmOf(r)));

    auto pending = std::make_shared<std::uint32_t>(
        static_cast<std::uint32_t>(direct.size() + relays.size()) + 1);
    auto done_p = std::make_shared<DoneCb>(std::move(done));
    auto one_done = [pending, done_p]() {
        if (--*pending == 0)
            (*done_p)();
    };

    ctx_.gpm(r).waitInvDrained(one_done);

    for (GpmId dst : direct) {
        ++rel_markers_;
        ctx_.net.inject(
            {.src = r,
             .dst = dst,
             .type = MsgType::RelMarker,
             .onArrival = [this, r, dst, one_done]() {
                 ctx_.gpm(dst).waitInvDrained([this, r, dst, one_done]() {
                     ctx_.net.inject({.src = dst,
                                      .dst = r,
                                      .type = MsgType::RelAck,
                                      .onArrival = one_done});
                 });
             }});
    }
    for (GpmId relay : relays) {
        ++rel_markers_;
        ctx_.net.inject(
            {.src = r,
             .dst = relay,
             .type = MsgType::RelMarker,
             .onArrival = [this, r, relay, one_done]() {
                 // The relay fans markers inside its own GPU, waits for
                 // its own drain plus its siblings' acks, then
                 // acknowledges.
                 const GpuId u = ctx_.cfg.gpuOf(relay);
                 auto sub = std::make_shared<std::uint32_t>(
                     ctx_.cfg.gpmsPerGpu); // siblings + own drain
                 auto sub_done = [this, sub, relay, r, one_done]() {
                     if (--*sub == 0)
                         ctx_.net.inject({.src = relay,
                                          .dst = r,
                                          .type = MsgType::RelAck,
                                          .onArrival = one_done});
                 };
                 ctx_.gpm(relay).waitInvDrained(sub_done);
                 for (std::uint32_t l = 0; l < ctx_.cfg.gpmsPerGpu; ++l) {
                     GpmId d = ctx_.cfg.gpmId(u, l);
                     if (d == relay)
                         continue;
                     ++rel_markers_;
                     ctx_.net.inject(
                         {.src = relay,
                          .dst = d,
                          .type = MsgType::RelMarker,
                          .onArrival = [this, relay, d, sub_done]() {
                              ctx_.gpm(d).waitInvDrained(
                                  [this, relay, d, sub_done]() {
                                      ctx_.net.inject(
                                          {.src = d,
                                           .dst = relay,
                                           .type = MsgType::RelAck,
                                           .onArrival = sub_done});
                                  });
                          }});
                 }
             }});
    }
}

void
HwProtocol::kernelBoundary()
{
    // Hardware coherence keeps all L2s clean across kernel boundaries;
    // only the (software-managed) L1s are invalidated by the front-end.
}

// ------------------------------------------------------------- downgrade

void
HwProtocol::installEvictionHooks()
{
    // Dirty victims must be written back (write-back mode); clean
    // victims may optionally send the downgrade message of Section IV-B
    // ("Cache Eviction") — exact only when a directory entry covers a
    // single line, since with coarse sectors a downgrade could prune a
    // sharer that still caches a sibling line.
    const bool downgrade =
        ctx_.cfg.sharerDowngrade && ctx_.cfg.dirLinesPerEntry == 1;
    for (auto &node : ctx_.gpms) {
        GpmId id = node->id();
        node->l2().setEvictionHook([this, id,
                                    downgrade](const CacheLine &victim) {
            const Addr line = victim.addr;
            if (!ctx_.pages.isPlaced(line))
                return;
            if (victim.dirty && writeBack()) {
                // The paper's update-without-tracking write-back.
                writeBackLine(id, line, victim.version,
                              /*record=*/false);
                return;
            }
            if (!downgrade)
                return;
            const GpmId h = sysHome(line);
            const GpmId gh = gpuHomeFor(ctx_.cfg.gpuOf(id), line);
            const GpmId home = hier_ ? (id == gh ? h : gh) : h;
            if (home == id)
                return;
            ++downgrades_;
            ctx_.net.inject({.src = id,
                             .dst = home,
                             .type = MsgType::Downgrade,
                             .addr = line,
                             .onArrival = [this, home, id, line]() {
                                 handleDowngrade(home, id, line);
                             }});
        });
    }
}

void
HwProtocol::handleDowngrade(GpmId h, GpmId from, Addr line)
{
    applyDirEventAt(dirTableFor(h, line), h, from, line,
                    verify::DirEvent::Downgrade, nullptr);
}

void
HwProtocol::reportStats(StatRecorder &r) const
{
    CoherenceModel::reportStats(r);
    r.record("protocol.loads_local_hit",
             static_cast<double>(loads_local_hit_.total()));
    r.record("protocol.loads_gpu_home_hit",
             static_cast<double>(loads_gpu_home_hit_.total()));
    if (ctx_.cfg.numNodes > 1)
        r.record("protocol.loads_node_home_hit",
                 static_cast<double>(loads_node_home_hit_.total()));
    r.record("protocol.loads_sys_home_hit",
             static_cast<double>(loads_sys_home_hit_.total()));
    r.record("protocol.loads_dram",
             static_cast<double>(loads_dram_.total()));
    r.record("protocol.releases", static_cast<double>(releases_.total()));
    r.record("protocol.rel_markers",
             static_cast<double>(rel_markers_.total()));
    r.record("protocol.downgrades",
             static_cast<double>(downgrades_.total()));
}

} // namespace hmg
