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
    : HomeChainModel(ctx, hierarchical,
                     hierarchical && ctx.cfg.numNodes > 1,
                     /*cache_remote=*/true)
{
    for (auto &node : ctx_.gpms)
        hmg_assert(node->dir() != nullptr);
    if (ctx_.cfg.sharerDowngrade || ctx_.cfg.l2WriteBack)
        installEvictionHooks();

    const SystemConfig &cfg = ctx_.cfg;
    marker_targets_.resize(cfg.totalGpms());
    for (GpmId r = 0; r < cfg.totalGpms(); ++r) {
        MarkerTargets &t = marker_targets_[r];
        const GpuId u = cfg.gpuOf(r);
        for (std::uint32_t l = 0; l < cfg.gpmsPerGpu; ++l)
            if (cfg.gpmId(u, l) != r)
                t.gpuPeers.push_back(cfg.gpmId(u, l));
        t.relayed = t.gpuPeers;
        for (GpuId o = 0; o < cfg.numGpus; ++o)
            if (o != u)
                t.relayed.push_back(cfg.gpmId(o, cfg.localGpmOf(r)));
        for (GpmId d = 0; d < cfg.totalGpms(); ++d)
            if (d != r)
                t.others.push_back(d);
    }
}

void
HwProtocol::dirEvent(verify::DirEvent ev, GpmId at, GpmId via, Addr line,
                     GpmId h)
{
    // A store's job is made with its first invalidation: a job that
    // sends none is never sampled, so it would be pure overhead.
    InvJobPtr job;
    applyDirEventAt(at, h, via, line, ev, job);
}

// --------------------------------------------------- directory plumbing

void
HwProtocol::applyDirEventAt(GpmId at, GpmId h, GpmId via, Addr line,
                            verify::DirEvent ev, InvJobPtr &job)
{
    using verify::DirCommit;
    using verify::DirEvent;
    Directory &dir = *ctx_.gpm(at).dir();
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

    // The entry covers the whole sector, so its fan goes to the homes
    // of the sector's base address. A flat fan names no home.
    const auto out = verify::applyDirEvent(
        verify::dirTable(), topo_, hier_, at, via, ev, pre,
        hier_ ? sysHome(sector) : h, [&](GpmId dst) {
            if (!job) {
                // Only a store's fan starts a job (see dirEvent).
                hmg_assert(ev == DirEvent::Store);
                job = makeInvJob(/*from_store=*/true);
            }
            sendInv(at, dst, sector, job);
        });

    DirEntry *w = e;
    switch (out.commit) {
      case DirCommit::Keep:
        return;
      case DirCommit::Remove:
        dir.remove(line);
        return;
      case DirCommit::WriteBits:
        // Only a found entry is rewritten in place; a load allocates.
        hmg_assert(w != nullptr);
        break;
      case DirCommit::RemoveAllocate:
        dir.remove(line);
        [[fallthrough]];
      case DirCommit::Allocate: {
        std::optional<DirEntry> evicted;
        w = dir.allocate(line, &evicted);
        if (evicted && evicted->hasSharers())
            replaceVictim(at, *evicted);
        break;
      }
    }
    w->gpmSharers = out.gpmBits;
    w->gpuSharers = out.gpuBits;
    w->nodeSharers = out.nodeBits;
}

void
HwProtocol::replaceVictim(GpmId at, const DirEntry &victim)
{
    auto job = makeInvJob(/*from_store=*/false);
    const Addr sector = victim.sector;
    const verify::DirSnapshot pre{true, victim.gpmSharers,
                                  victim.gpuSharers, victim.nodeSharers};
    // The victim is already detached from the directory, so the row's
    // Invalid next-state needs no commit — only its invalidation fan.
    // A flat directory lives at the system home itself.
    const GpmId h = hier_ ? sysHome(sector) : at;
    verify::applyDirEvent(
        verify::dirTable(), topo_, hier_, at, kInvalidGpm,
        verify::DirEvent::Replace, pre, h,
        [&](GpmId dst) { sendInv(at, dst, sector, job); });
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
    // acknowledgment (GpmNode::invs()); the landing is counted
    // before handleInv so a re-fanned invalidation issued there can
    // never observe its trigger as still in flight. The checker's
    // delivery note comes after handleInv for the same reason: a
    // re-fanned wave must overlap its trigger in the per-sector count.
    ctx_.gpm(from).invs().issue();
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
                                           ctx_.gpm(from).invs().land();
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
        // The HMG-only transition of Table I: a GPU home receiving an
        // invalidation re-fans it one tier down and drops the entry. A
        // node home is a GPU home too, and its single entry covers
        // both tiers, so it applies exactly one InvRecv. The system
        // home never receives an invalidation for a sector it homes
        // (every fan excludes it), so the guard below never sees
        // at == sysHome.
        if (ctx_.pages.isPlaced(sector)) {
            const GpmId h = sysHome(sector);
            if (topo_.gpuHome(topo_.gpuOf(at), h) == at && at != h)
                applyDirEventAt(at, h, kInvalidGpm, sector,
                                verify::DirEvent::InvRecv, job);
        }
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
    const bool relayed = hier_ && acc.scope == Scope::Sys &&
                         ctx_.cfg.hierarchicalReleaseFanout;

    // A `.gpu` release reaches its own GPU's other GPMs; a relayed
    // `.sys` release reaches those plus one relay per remote GPU (the
    // GPM with r's local index); any other release reaches every GPM.
    const MarkerTargets &t = marker_targets_[r];
    const std::vector<GpmId> &targets =
        relayed ? t.relayed
                : (hier_ && acc.scope == Scope::Gpu ? t.gpuPeers : t.others);

    // HMG `.sys` releases need one marker round per invalidation wave:
    // round one drains the system homes' top-level invalidations into
    // the homes one tier down; each further round drains one re-fanned
    // wave (GPU homes' GPM fans; with a live node tier, the node homes'
    // re-fans add a wave of their own).
    const int rounds = (hier_ && acc.scope == Scope::Sys)
                           ? (multiNode_ ? 3 : 2)
                           : 1;

    auto state = std::make_shared<MarkerRounds>(
        MarkerRounds{r, &targets, relayed, rounds, 0, std::move(done)});
    auto after_drain = [this, state]() { markerRound(state); };

    // Write-back mode: "Release operations trigger a writeback of all
    // dirty data to the respective home nodes" (Section IV-B) — flush
    // the releasing GPM's dirty lines, then wait for both the SM's
    // write-throughs and this GPM's in-flight write-backs.
    if (writeBack()) {
        // Only after the SM's posted stores have landed in the local L2
        // (tracker drained) is its dirty set final: flush it, then wait
        // for this GPM's in-flight write-backs.
        auto flush_then_wait = [this, r, after_drain]() {
            flushDirty(r);
            ctx_.gpm(r).writebacks().wait(after_drain);
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
                ctx_.gpm(g).writebacks().wait([this, pending, done_p]() {
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
    ctx_.gpm(src).writebacks().issue();
    StoreFlow f{MemAccess{0, src, line, Scope::None}, v,
                [this, src]() { ctx_.gpm(src).writebacks().land(); }};
    f.recordWriter = record;
    // A dirty victim was coherence-ordered by its original local store,
    // not by this flush's arrival at the home: never clobber newer data.
    // Nor does it count against any SM's release tracker.
    f.tracked = false;
    f.serialized = false;
    writeThrough(std::move(f), sysHome(line));
}

void
HwProtocol::markerRound(const std::shared_ptr<MarkerRounds> &rounds)
{
    const GpmId r = rounds->r;
    const bool relay = rounds->relay;
    const std::vector<GpmId> &targets = *rounds->targets;
    rounds->pending = static_cast<std::uint32_t>(targets.size()) + 1;
    // Every completion below runs exactly once, at `r`; the last of a
    // round starts the next one in the same event, or finishes.
    auto one_done = [this, rounds]() {
        if (--rounds->pending != 0)
            return;
        if (--rounds->left > 0)
            markerRound(rounds);
        else
            rounds->done();
    };

    // The releasing GPM's own outbound invalidations must land too.
    ctx_.gpm(r).invs().wait(one_done);

    for (GpmId dst : targets) {
        ++rel_markers_;
        ctx_.net.inject(
            {.src = r,
             .dst = dst,
             .type = MsgType::RelMarker,
             .onArrival = [this, r, dst, relay, one_done]() {
                 DoneCb ack = [this, r, dst, one_done]() {
                     ctx_.net.inject({.src = dst,
                                      .dst = r,
                                      .type = MsgType::RelAck,
                                      .onArrival = one_done});
                 };
                 // FIFO transport guarantees every invalidation `dst`
                 // received before this marker has been handled; the
                 // ledger wait covers the ones `dst` itself still has
                 // in flight. A relay also drains its GPU's other GPMs.
                 if (relay && ctx_.cfg.gpuOf(dst) != ctx_.cfg.gpuOf(r))
                     markerRound(std::make_shared<MarkerRounds>(
                         MarkerRounds{dst,
                                      &marker_targets_[dst].gpuPeers,
                                      false, 1, 0, std::move(ack)}));
                 else
                     ctx_.gpm(dst).invs().wait(std::move(ack));
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
    // ("Cache Eviction"). validate() admits downgrades only where a
    // directory entry covers a single line, the one granularity at
    // which pruning the evicting sharer is exact.
    const bool downgrade = ctx_.cfg.sharerDowngrade;
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
            // A GPM reports to its GPU home, a GPU home to the system
            // home.
            const GpmId h = sysHome(line);
            const GpmId gh = topo_.gpuHome(topo_.gpuOf(id), h);
            const GpmId home = hier_ && id != gh ? gh : h;
            if (home == id)
                return;
            ++downgrades_;
            ctx_.net.inject(
                {.src = id,
                 .dst = home,
                 .type = MsgType::Downgrade,
                 .addr = line,
                 .onArrival = [this, home, h, id, line]() {
                     InvJobPtr none;
                     applyDirEventAt(home, h, id, line,
                                     verify::DirEvent::Downgrade, none);
                 }});
        });
    }
}

void
HwProtocol::reportStats(StatRecorder &r) const
{
    HomeChainModel::reportStats(r);
    if (ctx_.cfg.numNodes > 1)
        r.record("protocol.loads_node_home_hit",
                 static_cast<double>(loads_node_home_hit_.total()));
    r.record("protocol.releases", static_cast<double>(releases_.total()));
    r.record("protocol.rel_markers",
             static_cast<double>(rel_markers_.total()));
    r.record("protocol.downgrades",
             static_cast<double>(downgrades_.total()));
}

} // namespace hmg
