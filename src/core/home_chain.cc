#include "core/home_chain.hh"

#include <utility>

namespace hmg
{

using verify::DirEvent;

HomeChainModel::HomeChainModel(SystemContext &ctx, bool gpu_tier,
                               bool node_tier, bool cache_remote)
    : CoherenceModel(ctx),
      topo_{ctx.cfg.numGpus, ctx.cfg.gpmsPerGpu, ctx.cfg.numNodes},
      hier_(gpu_tier),
      multiNode_(node_tier),
      cacheRemote_(cache_remote)
{
}

bool
HomeChainModel::mayCache(GpmId gpm, Addr line_addr) const
{
    return cacheRemote_ ||
           topo_.gpuOf(gpm) == topo_.gpuOf(sysHome(line_addr));
}

bool
HomeChainModel::isHome(GpmId g, GpmId h) const
{
    return g == h || (hier_ && topo_.gpuHome(topo_.gpuOf(g), h) == g);
}

MemoryState &
HomeChainModel::memAt(GpmId h) const
{
    hmg_assert(!ctx_.lps.concurrent() ||
               ctx_.lps.lpOfGpm(h) == LpDomain::currentLp());
    return ctx_.mem;
}

// ---------------------------------------------------------------- loads

void
HomeChainModel::load(const MemAccess &acc, LoadDoneCb done)
{
    ctx_.pages.touch(acc.lineAddr, acc.gpm);
    const GpmId h = sysHome(acc.lineAddr);
    ctx_.engine().schedule(tagLat(), [this, acc, h,
                                      done = std::move(done)]() mutable {
        // A requester that is itself a home for the line pays the tag
        // check a second time, in its home stage (DESIGN.md §3.5).
        if (isHome(acc.gpm, h))
            serveLoad(acc, acc.gpm, acc.gpm, h, std::move(done));
        else
            probeLoad(acc, acc.gpm, acc.gpm, h, std::move(done));
    });
}

void
HomeChainModel::serveLoad(const MemAccess &acc, GpmId at, GpmId via,
                          GpmId h, LoadDoneCb below)
{
    ctx_.engine().schedule(tagLat(), [this, acc, at, via, h,
                                      below = std::move(below)]() mutable {
        probeLoad(acc, at, via, h, std::move(below));
    });
}

void
HomeChainModel::probeLoad(const MemAccess &acc, GpmId at, GpmId via,
                          GpmId h, LoadDoneCb below)
{
    const Addr line = acc.lineAddr;
    GpmNode &node = ctx_.gpm(at);
    // The forward-progress miss rules (loadMayHit): a `.gpu` load must
    // miss below the GPU home, a `.sys` load everywhere but the system
    // home. A node home answers like a GPU home: the FIFO channels
    // gh -> nh -> h order its copy after every write-through it passed
    // on, so a `.gpu` load still sees every store its GPU released.
    const bool home = isHome(at, h);
    const CacheRole role = home ? CacheRole::GpuHome : CacheRole::NonHome;
    const bool mergeable =
        at == h || (loadMayHit(acc.scope, role) && mayCache(at, line));
    if (mergeable) {
        const auto res = node.l2().load(line);
        if (res.hit) {
            if (at == h)
                ++loads_sys_home_hit_;
            else if (!home)
                ++loads_local_hit_;
            else if (topo_.gpuOf(at) == topo_.gpuOf(acc.gpm))
                ++loads_gpu_home_hit_;
            else
                ++loads_node_home_hit_;
            ctx_.engine().schedule(dataLat(), [this, line, at, via, h,
                                               below = std::move(below),
                                               v = res.version]() mutable {
                respond(line, at, via, h, std::move(below), v);
            });
            return;
        }
        // Coalesce with an in-flight miss on the same line; each waiter
        // is answered toward the tier it came from.
        if (!node.mshrRegister(line, via, std::move(below)))
            return;
    }
    if (at == h) {
        ++loads_dram_;
        const Tick ready = node.dram().read(ctx_.cfg.cacheLineBytes);
        ctx_.engine().scheduleAt(ready, [this, line, h]() {
            const Version v = memAt(h).read(line);
            ctx_.gpm(h).l2().fill(line, v);
            wakeMerged(line, h, h, v);
        });
        return;
    }
    // Miss below the system home: fill this tier from the next home up,
    // then wake every merged request (or answer the one that could not
    // merge). Only this tier's identity travels onward (Section V-B).
    // The answer is the version the L2 holds after the fill, not the
    // fetched one: a store that landed here during the fetch is newer,
    // and a waiter answered with the fetched version would miss it.
    if (mergeable) {
        fetchUp(acc, at, h, [this, line, at, h](Version v) {
            wakeMerged(line, at, h, ctx_.gpm(at).l2().fill(line, v));
        });
    } else {
        fetchUp(acc, at, h,
                parked(at, [this, line, at, via, h,
                            below = std::move(below)](Version v) mutable {
                    if (mayCache(at, line))
                        v = ctx_.gpm(at).l2().fill(line, v);
                    respond(line, at, via, h, std::move(below), v);
                }));
    }
}

void
HomeChainModel::wakeMerged(Addr line, GpmId at, GpmId h, Version v)
{
    ctx_.gpm(at).mshrComplete(line, [&](GpmId via, LoadDoneCb below) {
        respond(line, at, via, h, std::move(below), v);
    });
}

LoadDoneCb
HomeChainModel::parked(GpmId at, GpmNode::ParkedCb then)
{
    const std::uint32_t ticket = ctx_.gpm(at).park(std::move(then));
    return [this, at, ticket](Version v) {
        ctx_.gpm(at).unpark(ticket)(v);
    };
}

void
HomeChainModel::respond(Addr line, GpmId at, GpmId via, GpmId h,
                        LoadDoneCb below, Version v)
{
    if (via == at) {
        below(v);
        return;
    }
    // The sharer is recorded in the same event that sends the response,
    // not at request arrival: a store processed while this load waits
    // on the tier above would otherwise reset the sharer list and let
    // its invalidation overtake the response, leaving an untracked stale
    // copy at `via`.
    dirEvent(DirEvent::LoadMiss, at, via, line, h);
    ctx_.net.inject({.src = at,
                     .dst = via,
                     .type = MsgType::ReadResp,
                     .addr = line,
                     .onArrival = [v, below = std::move(below)]() mutable {
                         below(v);
                     }});
}

void
HomeChainModel::fetchUp(const MemAccess &acc, GpmId at, GpmId h,
                        LoadDoneCb then)
{
    const GpmId up = nextHome(at, h);
    ctx_.net.inject({.src = at,
                     .dst = up,
                     .type = MsgType::ReadReq,
                     .addr = acc.lineAddr,
                     .onArrival = [this, acc, at, up, h,
                                   then = std::move(then)]() mutable {
                         serveLoad(acc, up, at, h, std::move(then));
                     }});
}

// ---------------------------------------------------------------- stores

void
HomeChainModel::store(const MemAccess &acc, Version v, DoneCb accepted,
                      DoneCb sys_done)
{
    ctx_.pages.touch(acc.lineAddr, acc.gpm);

    if (ctx_.cfg.l2WriteBack && acc.scope <= Scope::Cta) {
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

    const GpmId h = sysHome(acc.lineAddr);
    StoreFlow f{acc, v, std::move(sys_done)};
    ctx_.engine().schedule(tagLat(), [this, f = std::move(f), h,
                                      accepted =
                                          std::move(accepted)]() mutable {
        // Write-through: update (and allocate in) the writer's own L2.
        if (mayCache(f.acc.gpm, f.acc.lineAddr))
            ctx_.gpm(f.acc.gpm).l2().store(f.acc.lineAddr, f.v);
        accepted();
        writeThrough(std::move(f), h);
    });
}

void
HomeChainModel::writeThrough(StoreFlow f, GpmId h)
{
    const GpmId src = f.acc.gpm;
    if (isHome(src, h))
        storeAt(std::move(f), src, src, h);
    else
        forward(std::move(f), src, h);
}

void
HomeChainModel::forward(StoreFlow f, GpmId from, GpmId h)
{
    const GpmId up = nextHome(from, h);
    const Addr line = f.acc.lineAddr;
    ctx_.net.inject({.src = from,
                     .dst = up,
                     .type = MsgType::WriteThrough,
                     .addr = line,
                     .onArrival = [this, f = std::move(f), from, up,
                                   h]() mutable {
                         storeAt(std::move(f), up, from, h);
                     }});
}

void
HomeChainModel::storeAt(StoreFlow f, GpmId at, GpmId via, GpmId h)
{
    const Addr line = f.acc.lineAddr;
    if (at == h || mayCache(at, line))
        ctx_.gpm(at).l2().store(line, f.v, /*mark_dirty=*/false,
                                f.serialized);
    if (at == h) {
        memAt(h).write(line, f.v, f.serialized);
        ctx_.gpm(h).dram().write(ctx_.cfg.cacheLineBytes);
    }
    dirEvent(DirEvent::Store, at, f.recordWriter ? via : kInvalidGpm, line,
             h);
    climb(std::move(f), at, h);
}

void
HomeChainModel::climb(StoreFlow f, GpmId at, GpmId h)
{
    if (at != h) {
        // The requester's own GPU home completes the GPU level; a node
        // home (in another GPU) only delays the system level.
        if (topo_.gpuOf(at) == topo_.gpuOf(f.acc.gpm)) {
            if (f.tracked)
                ctx_.tracker.reachedGpuLevel(f.acc.sm);
            f.gpuCleared = true;
        }
        forward(std::move(f), at, h);
        return;
    }
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
HomeChainModel::atomic(const MemAccess &acc, Version v, LoadDoneCb done,
                       DoneCb sys_done)
{
    ctx_.pages.touch(acc.lineAddr, acc.gpm);
    const GpmId h = sysHome(acc.lineAddr);
    // Performed at the home for the atomic's scope (Section V-B); a flat
    // chain always uses the system home (Section IV-B).
    const GpmId target = (hier_ && acc.scope <= Scope::Gpu)
                             ? topo_.gpuHome(topo_.gpuOf(acc.gpm), h)
                             : h;
    if (target == acc.gpm) {
        atomicAt(acc, target, h, v, std::move(done), std::move(sys_done));
        return;
    }
    ctx_.net.inject({.src = acc.gpm,
                     .dst = target,
                     .type = MsgType::AtomicReq,
                     .addr = acc.lineAddr,
                     .onArrival = [this, acc, target, h, v,
                                   done = std::move(done),
                                   sys_done =
                                       std::move(sys_done)]() mutable {
                         atomicAt(acc, target, h, v, std::move(done),
                                  std::move(sys_done));
                     }});
}

void
HomeChainModel::atomicAt(const MemAccess &acc, GpmId target, GpmId h,
                         Version v, LoadDoneCb done, DoneCb sys_done)
{
    ctx_.engine().schedule(tagLat(), [this, acc, target, h, v,
                                      done = std::move(done),
                                      sys_done =
                                          std::move(sys_done)]() mutable {
        GpmNode &node = ctx_.gpm(target);
        const auto res = node.l2().load(acc.lineAddr);
        if (res.hit) {
            performAtomic(acc, target, h, v, res.version, std::move(done),
                          std::move(sys_done));
            return;
        }
        if (target == h) {
            // The system home reads its DRAM directly.
            const Tick ready = node.dram().read(ctx_.cfg.cacheLineBytes);
            ctx_.engine().scheduleAt(ready, [this, acc, target, h, v,
                                             done = std::move(done),
                                             sys_done = std::move(
                                                 sys_done)]() mutable {
                performAtomic(acc, target, h, v,
                              memAt(h).read(acc.lineAddr), std::move(done),
                              std::move(sys_done));
            });
            return;
        }
        // A GPU home without the line fetches it from the next home up
        // (every tier it crosses records it as a sharer), then performs
        // the RMW itself.
        fetchUp(acc, target, h,
                parked(target, [this, acc, target, h, v,
                                done = std::move(done),
                                sys_done = std::move(sys_done)](
                                   Version old_v) mutable {
                    if (mayCache(target, acc.lineAddr))
                        ctx_.gpm(target).l2().fill(acc.lineAddr, old_v);
                    performAtomic(acc, target, h, v, old_v, std::move(done),
                                  std::move(sys_done));
                }));
    });
}

void
HomeChainModel::performAtomic(const MemAccess &acc, GpmId target, GpmId h,
                              Version v, Version old_v, LoadDoneCb done,
                              DoneCb sys_done)
{
    const Addr line = acc.lineAddr;
    // The RMW serializes at `target`: its copy takes the arrival order.
    if (target == h || mayCache(target, line))
        ctx_.gpm(target).l2().store(line, v, /*mark_dirty=*/false,
                                    /*serialized=*/true);

    // Coherence-wise an atomic is a store with no tracked writer: every
    // sharer is invalidated, the requester's stale copy included
    // (atomics do not refresh the requester's own L2).
    dirEvent(DirEvent::Store, target, kInvalidGpm, line, h);

    // Return the pre-op value to the requester.
    if (target == acc.gpm) {
        done(old_v);
    } else {
        ctx_.net.inject({.src = target,
                         .dst = acc.gpm,
                         .type = MsgType::AtomicResp,
                         .addr = line,
                         .onArrival = [done = std::move(done),
                                       old_v]() mutable { done(old_v); }});
    }

    if (target == h) {
        memAt(h).write(line, v);
        ctx_.gpm(h).dram().write(ctx_.cfg.cacheLineBytes);
    }
    // Write the result onward as a store from `target` would propagate
    // (Section V-B, "Atomics and Reductions"). The performing home keeps
    // a fresh copy, so every home above records it as the writer.
    climb(StoreFlow{acc, v, std::move(sys_done)}, target, h);
}

void
HomeChainModel::reportStats(StatRecorder &r) const
{
    CoherenceModel::reportStats(r);
    r.record("protocol.loads_local_hit",
             static_cast<double>(loads_local_hit_.total()));
    r.record("protocol.loads_gpu_home_hit",
             static_cast<double>(loads_gpu_home_hit_.total()));
    r.record("protocol.loads_sys_home_hit",
             static_cast<double>(loads_sys_home_hit_.total()));
    r.record("protocol.loads_dram",
             static_cast<double>(loads_dram_.total()));
}

} // namespace hmg
