#include "core/checker.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "common/log.hh"

namespace hmg
{

namespace
{

/** Key of the in-flight write-through map: (domain, line) packed. The
 *  domain is the writer's GPU, not its GPM: a hierarchical write-through
 *  plants copies at both the writer's L2 and its GPU home's L2 before
 *  the system home has heard of either, so every copy on the writer's
 *  GPU shares the transient window. */
Addr
wtKey(GpuId gpu, Addr line)
{
    return (Addr{gpu} << 48) | line;
}

} // namespace

CoherenceChecker::CoherenceChecker(SystemContext &ctx,
                                   std::unique_ptr<CoherenceModel> inner)
    : CoherenceModel(ctx), inner_(std::move(inner)),
      name_(std::string(inner_->name()) + "+check"),
      topo_{ctx.cfg.numGpus, ctx.cfg.gpmsPerGpu, ctx.cfg.numNodes},
      hw_(isHardwareProtocol(ctx.cfg.protocol)),
      hier_(isHierarchicalProtocol(ctx.cfg.protocol)),
      multiNode_(hier_ && ctx.cfg.numNodes > 1)
{
    sms_.resize(ctx.cfg.totalSms());
    released_gpu_.resize(ctx.cfg.numGpus);
    gpu_epoch_.assign(ctx.cfg.numGpus, 0);
    ctx.checker = this;
}

CoherenceChecker::~CoherenceChecker()
{
    ctx_.checker = nullptr;
}

// ------------------------------------------------------------ tx ring

void
CoherenceChecker::logTx(const char *kind, const MemAccess &acc, Version v)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "[%llu] %-9s sm%-3u gpm%-2u line %#llx %s v%llu",
                  static_cast<unsigned long long>(ctx_.engine().now()), kind,
                  acc.sm, acc.gpm,
                  static_cast<unsigned long long>(acc.lineAddr),
                  toString(acc.scope), static_cast<unsigned long long>(v));
    if (txlog_.size() < kTxLogEntries)
        txlog_.emplace_back(buf);
    else
        txlog_[tx_next_ % kTxLogEntries] = buf;
    ++tx_next_;
}

void
CoherenceChecker::dumpTxRing(std::FILE *out) const
{
    std::fprintf(out, "--- last %zu protocol events (oldest first) ---\n",
                 txlog_.size());
    const std::size_t n = txlog_.size();
    const std::size_t start = tx_next_ > n ? tx_next_ % kTxLogEntries : 0;
    for (std::size_t i = 0; i < n; ++i)
        std::fprintf(out, "  %s\n", txlog_[(start + i) % n].c_str());
    std::fflush(out);
}

void
CoherenceChecker::violation(const char *fmt, ...)
{
    char msg[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(msg, sizeof(msg), fmt, args);
    va_end(args);

    std::fflush(stdout);
    std::fprintf(stderr, "=== coherence violation at tick %llu ===\n%s\n",
                 static_cast<unsigned long long>(ctx_.engine().now()), msg);
    dumpTxRing(stderr);
    hmg_panic("coherence violation: %s", msg);
}

// ----------------------------------------------------- oracle updates

void
CoherenceChecker::recordWrite(const MemAccess &acc, Version v)
{
    auto [line, inserted] = version_line_.tryEmplace(v, acc.lineAddr);
    if (!inserted && *line != acc.lineAddr)
        violation("version %llu written to line %#llx was already "
                  "produced for line %#llx",
                  static_cast<unsigned long long>(v),
                  static_cast<unsigned long long>(acc.lineAddr),
                  static_cast<unsigned long long>(*line));
    SmState &sm = sms_.at(acc.sm);
    sm.writeLog.emplace_back(acc.lineAddr, v);
    ++sm.logged;
    ++writes_logged_;
}

void
CoherenceChecker::recordArrival(Addr line, Version v)
{
    arrival_rank_.tryEmplace(v, ++arr_next_[line]);
}

bool
CoherenceChecker::newerThan(Version a, Version b) const
{
    if (a == b)
        return false;
    // Version 0 is the initial value: older than everything, and never
    // in the arrival map — without these guards it would fall into the
    // unlanded branch below and rank as *newest*, which (among other
    // things) made the floor pick in verifyObserved select an absent
    // GPU floor over a real system floor. Found by the exhaustive
    // model checker (src/verify/) while mirroring this predicate.
    if (a == 0)
        return false;
    if (b == 0)
        return true;
    const std::uint64_t *ra = arrival_rank_.find(a);
    const std::uint64_t *rb = arrival_rank_.find(b);
    if (ra && rb)
        return *ra > *rb;
    // An unlanded write will reach the home after every landed one,
    // making it coherence-newer; between two unlanded writes fall back
    // to version-id order (same-SM writes land in id order).
    if (!ra && rb)
        return true;
    if (ra)
        return false;
    return a > b;
}

bool
CoherenceChecker::staleAgainst(Version v, Version floor) const
{
    if (floor == 0 || v == floor)
        return false;
    if (v == 0)
        return true; // the never-written initial value predates any floor
    const std::uint64_t *rv = arrival_rank_.find(v);
    const std::uint64_t *rf = arrival_rank_.find(floor);
    if (!rf)
        // GPU-scope floors can be folded before the write-through
        // reaches the system home; without its rank the coherence
        // order is still open, so don't flag (conservative).
        return false;
    if (!rv)
        // An unlanded observed version will land after the floor did,
        // making it coherence-newer: reading it is legal (this also
        // covers reading one's own in-flight write).
        return false;
    return *rv < *rf;
}

Version
CoherenceChecker::floorOf(const FloorMap &m, Addr line,
                          std::uint64_t epoch) const
{
    if (epoch == 0)
        return 0;
    const std::vector<FloorEntry> *entries = m.find(line);
    if (!entries)
        return 0;
    // Entries carry coherence-increasing versions and nondecreasing
    // epochs, so the newest entry not past `epoch` is the floor.
    for (auto rit = entries->rbegin(); rit != entries->rend(); ++rit)
        if (rit->epoch <= epoch)
            return rit->version;
    return 0;
}

void
CoherenceChecker::fold(FloorMap &m, std::uint64_t epoch, SmState &sm,
                       std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i) {
        const auto &[line, v] = sm.writeLog[i];
        auto &entries = m[line];
        if (entries.empty() || newerThan(v, entries.back().version))
            entries.push_back({epoch, v});
    }
}

void
CoherenceChecker::foldRelease(const MemAccess &acc, std::uint64_t upTo)
{
    if (acc.scope != Scope::Sys && acc.scope != Scope::Gpu)
        return; // narrower scopes order nothing below the L1
    SmState &sm = sms_.at(acc.sm);
    // `upTo` is an absolute log position from issue time. Overlapping
    // releases from the same SM's warps complete in any order, and a
    // kernel boundary may have folded everything already, so fold only
    // the writes nobody has folded yet. A later-epoch fold of an
    // earlier release's writes is sound: floors only become claimable
    // by acquirers that acked the (later) epoch.
    const std::uint64_t already = sm.folded;
    if (upTo <= already) {
        ++releases_folded_;
        return;
    }
    const auto count = static_cast<std::size_t>(upTo - already);
    if (count > sm.writeLog.size())
        hmg_panic("release fold of %zu entries exceeds SM %u write log "
                  "(%zu pending)",
                  count, acc.sm, sm.writeLog.size());
    if (acc.scope == Scope::Sys) {
        fold(released_sys_, ++sys_epoch_, sm, count);
    } else {
        const GpuId g = ctx_.cfg.gpuOf(acc.gpm);
        fold(released_gpu_[g], ++gpu_epoch_[g], sm, count);
    }
    sm.writeLog.erase(sm.writeLog.begin(),
                      sm.writeLog.begin() +
                          static_cast<std::ptrdiff_t>(count));
    sm.folded = upTo;
    ++releases_folded_;
}

void
CoherenceChecker::foldBoundary()
{
    // A dependent-kernel boundary is a machine-wide release/acquire
    // pair: every SM's outstanding writes become floors for everyone.
    const std::uint64_t epoch = ++sys_epoch_;
    for (auto &sm : sms_) {
        fold(released_sys_, epoch, sm, sm.writeLog.size());
        sm.writeLog.clear();
        sm.folded = sm.logged;
    }
    for (SmId s = 0; s < static_cast<SmId>(sms_.size()); ++s) {
        sms_[s].ackedSys = sys_epoch_;
        sms_[s].ackedGpu = gpu_epoch_[ctx_.cfg.gpuOf(ctx_.cfg.gpmOfSm(s))];
    }
}

// ------------------------------------------------- transient tracking

void
CoherenceChecker::noteInvSent(Addr sector)
{
    MaybeLock lock(ctx_.lps);
    ++invs_by_sector_[sector];
    ++invs_in_flight_;
}

void
CoherenceChecker::noteInvDelivered(Addr sector)
{
    MaybeLock lock(ctx_.lps);
    std::uint32_t *n = invs_by_sector_.find(sector);
    if (!n || invs_in_flight_ == 0)
        hmg_panic("invalidation ledger underflow on sector %#llx",
                  static_cast<unsigned long long>(sector));
    if (--*n == 0)
        invs_by_sector_.erase(sector);
    --invs_in_flight_;
}

Addr
CoherenceChecker::sectorOf(Addr line) const
{
    // All directories share one geometry; use GPM 0's.
    return ctx_.gpms.at(0)->dir()->sectorOf(line);
}

bool
CoherenceChecker::invInFlightOn(Addr line) const
{
    if (!hw_ || invs_in_flight_ == 0)
        return false;
    return invs_by_sector_.find(sectorOf(line)) != nullptr;
}

bool
CoherenceChecker::writeInFlight(GpuId gpu, Addr line) const
{
    return writes_in_flight_.find(wtKey(gpu, line)) != nullptr;
}

bool
CoherenceChecker::coverageExempt(GpmId g, Addr line,
                                 const CacheLine &copy) const
{
    // Transients the protocol resolves on its own: an invalidation for
    // the sector is still in flight; the copy's own write-through has
    // not reached the home yet (the home learns of the writer when it
    // lands); an atomic is being performed away from its requester; or
    // the copy is dirty write-back data, which travels by update
    // messages rather than sharer tracking.
    return invInFlightOn(line) || writeInFlight(ctx_.cfg.gpuOf(g), line) ||
           atomics_in_flight_.find(line) != nullptr ||
           (ctx_.cfg.l2WriteBack && copy.dirty);
}

// ------------------------------------------------- invariant checks

void
CoherenceChecker::verifyObserved(const MemAccess &acc, const char *op,
                                 Version v, Version sys_floor,
                                 Version gpu_floor, bool inv_at_issue)
{
    ++checks_;
    ++loads_checked_;
    if (v != 0) {
        const Addr *line = version_line_.find(v);
        if (!line)
            violation("%s at sm %u on line %#llx returned version %llu "
                      "that no store ever produced",
                      op, acc.sm,
                      static_cast<unsigned long long>(acc.lineAddr),
                      static_cast<unsigned long long>(v));
        if (*line != acc.lineAddr)
            violation("%s at sm %u on line %#llx returned version %llu "
                      "that belongs to line %#llx",
                      op, acc.sm,
                      static_cast<unsigned long long>(acc.lineAddr),
                      static_cast<unsigned long long>(v),
                      static_cast<unsigned long long>(*line));
    }
    const Version floor =
        newerThan(gpu_floor, sys_floor) ? gpu_floor : sys_floor;
    if (staleAgainst(v, floor)) {
        if (inv_at_issue || invInFlightOn(acc.lineAddr)) {
            // Stale-replant window: per-channel FIFO delivers a
            // ReadResp carrying pre-floor data before the trailing
            // invalidation that kills the replanted copy. A load that
            // hits the copy in that window legitimately returns the
            // old version; the inv is in flight at the load's issue or
            // completion. Tolerate the transient.
            ++coverage_exemptions_;
            return;
        }
        violation("%s at sm %u (%s) on line %#llx observed version %llu, "
                  "older than the acquired release floor %llu "
                  "(sys %llu, gpu %llu)",
                  op, acc.sm, toString(acc.scope),
                  static_cast<unsigned long long>(acc.lineAddr),
                  static_cast<unsigned long long>(v),
                  static_cast<unsigned long long>(floor),
                  static_cast<unsigned long long>(sys_floor),
                  static_cast<unsigned long long>(gpu_floor));
    }
}

void
CoherenceChecker::checkStructural(Addr line)
{
    // Peeks every GPM's L2 and directory. In a relaxed TimeWindow run
    // those live on other LPs mid-window: their state is legitimately
    // up to one window behind (delay-only relaxation), so the snapshot
    // would report false transients. The per-access ordering checks
    // (verifyObserved) still run; only the global structural scan is
    // confined to the deterministic engines.
    if (ctx_.lps.concurrent())
        return;
    if (!ctx_.pages.isPlaced(line))
        return;
    ++checks_;
    const GpmId home = ctx_.pages.homeOf(line);
    std::uint32_t dirty_copies = 0;
    for (GpmId g = 0; g < ctx_.cfg.totalGpms(); ++g) {
        const CacheLine *cl = ctx_.gpm(g).l2().peek(line);
        if (!cl)
            continue;
        if (cl->dirty) {
            if (!ctx_.cfg.l2WriteBack)
                violation("write-through mode, yet line %#llx is dirty "
                          "in GPM %u's L2",
                          static_cast<unsigned long long>(line), g);
            ++dirty_copies;
        }
        if (hw_ && g != home)
            checkCopyCovered(g, *cl);
    }
    if (dirty_copies > 1)
        violation("line %#llx has %u dirty L2 copies; write-back mode "
                  "allows a single dirty owner",
                  static_cast<unsigned long long>(line), dirty_copies);
}

void
CoherenceChecker::checkCopyCovered(GpmId g, const CacheLine &copy)
{
    const Addr line = copy.addr;
    const GpmId home = ctx_.pages.homeOf(line);
    // The one link a copy hangs by: the next home up must hold the bit
    // the walk records for `g` there. That home's own copy, if it is
    // not the system home, is checked as a copy in turn.
    const GpmId up = nextHome(topo_, hier_, multiNode_, g, home);
    const DirEntry *e = ctx_.gpm(up).dir()->peek(line);
    if (e && tracksSharer(topo_, hier_, up, g, e->gpmSharers,
                          e->gpuSharers, e->nodeSharers))
        return;
    if (coverageExempt(g, line, copy)) {
        ++coverage_exemptions_;
        return;
    }
    // Dump both directory levels so a violation report pinpoints which
    // sharer bit is missing.
    const GpmId gh = hier_ ? topo_.gpuHome(topo_.gpuOf(g), home) : home;
    const DirEntry *he = ctx_.gpm(home).dir()->peek(line);
    const DirEntry *ge = ctx_.gpm(gh).dir()->peek(line);
    violation("GPM %u caches line %#llx (v%llu) with no covering "
              "directory state; a future store could never invalidate it "
              "[home=%u gh=%u dir(home)={gpm=%#x,gpu=%#x,node=%#x} "
              "dir(gh)={gpm=%#x,gpu=%#x,node=%#x}]",
              g, static_cast<unsigned long long>(line),
              static_cast<unsigned long long>(copy.version), home, gh,
              he ? he->gpmSharers : 0u, he ? he->gpuSharers : 0u,
              he ? he->nodeSharers : 0u,
              ge ? ge->gpmSharers : 0u, ge ? ge->gpuSharers : 0u,
              ge ? ge->nodeSharers : 0u);
}

void
CoherenceChecker::checkQuiescent()
{
    // Same cross-LP snapshot problem as checkStructural: the boundary
    // is model-quiescent, but other LP threads are still inside their
    // window, so their tag arrays cannot be scanned safely.
    if (ctx_.lps.concurrent())
        return;
    ++boundary_scans_;
    for (GpmId g = 0; g < ctx_.cfg.totalGpms(); ++g) {
        ctx_.gpm(g).l2().tags().forEachValid([&](const CacheLine &cl) {
            ++checks_;
            if (cl.dirty)
                violation("dirty line %#llx in GPM %u's L2 survived the "
                          "boundary drain",
                          static_cast<unsigned long long>(cl.addr), g);
            if (!ctx_.pages.isPlaced(cl.addr))
                return;
            if (ctx_.pages.homeOf(cl.addr) == g) {
                const Version memv = ctx_.mem.read(cl.addr);
                if (cl.version != memv)
                    violation("home L2 copy of line %#llx (v%llu) "
                              "diverged from memory (v%llu) after the "
                              "boundary drain",
                              static_cast<unsigned long long>(cl.addr),
                              static_cast<unsigned long long>(cl.version),
                              static_cast<unsigned long long>(memv));
            } else if (hw_) {
                checkCopyCovered(g, cl);
            }
        });
    }
}

// --------------------------------------------- parked completions

std::uint32_t
CoherenceChecker::park(Pending p)
{
    const std::uint32_t t = pending_.take();
    pending_[t] = std::move(p);
    return t;
}

CoherenceChecker::Pending
CoherenceChecker::unpark(std::uint32_t ticket)
{
    Pending p = std::move(pending_[ticket]);
    pending_.free(ticket);
    return p;
}

// --------------------------------------------- CoherenceModel facade

void
CoherenceChecker::load(const MemAccess &acc, LoadDoneCb done)
{
    // Snapshot the sync obligations at issue time: an acquire completing
    // while this load is in flight must not retroactively strengthen it.
    std::uint32_t t;
    {
        MaybeLock lock(ctx_.lps);
        Pending p(acc);
        const SmState &sm = sms_.at(acc.sm);
        // Floors are claimable only on the deterministic engines. In a
        // relaxed TimeWindow run the epoch counters are bumped by folds
        // on other LPs in wall-clock order, so an acquire can observe
        // an epoch whose release completes *later* in simulated time —
        // a floor the protocol never promised. Claim nothing there;
        // version/line integrity is still verified, and the litmus
        // suite checks the ordering outcomes end to end.
        if (!ctx_.lps.concurrent()) {
            p.sysFloor = floorOf(released_sys_, acc.lineAddr, sm.ackedSys);
            // System-scope loads are served at the system home, which a
            // GPU-scope release never promises to have reached: only
            // narrower scopes inherit the per-GPU floor (matching-scope
            // pairing).
            p.gpuFloor =
                acc.scope >= Scope::Sys
                    ? 0
                    : floorOf(released_gpu_[ctx_.cfg.gpuOf(acc.gpm)],
                              acc.lineAddr, sm.ackedGpu);
        }
        p.invAtIssue = invInFlightOn(acc.lineAddr);
        p.loadDone = std::move(done);
        t = park(std::move(p));
    }
    inner_->load(acc, [this, t](Version v) {
        LoadDoneCb done;
        {
            MaybeLock lock(ctx_.lps);
            Pending p = unpark(t);
            logTx("ld", p.acc, v);
            verifyObserved(p.acc, "load", v, p.sysFloor, p.gpuFloor,
                           p.invAtIssue);
            checkStructural(p.acc.lineAddr);
            done = std::move(p.loadDone);
        }
        done(v);
    });
}

void
CoherenceChecker::store(const MemAccess &acc, Version v, DoneCb accepted,
                        DoneCb sys_done)
{
    std::uint32_t t;
    {
        MaybeLock lock(ctx_.lps);
        logTx("st", acc, v);
        recordWrite(acc, v);
        ++writes_in_flight_[wtKey(ctx_.cfg.gpuOf(acc.gpm), acc.lineAddr)];
        Pending p(acc, v);
        p.done = std::move(sys_done);
        t = park(std::move(p));
    }
    inner_->store(acc, v, std::move(accepted), [this, t]() {
        DoneCb sys_done;
        {
            MaybeLock lock(ctx_.lps);
            Pending p = unpark(t);
            const Addr key =
                wtKey(ctx_.cfg.gpuOf(p.acc.gpm), p.acc.lineAddr);
            std::uint32_t *n = writes_in_flight_.find(key);
            if (n && --*n == 0)
                writes_in_flight_.erase(key);
            // This callback runs in the event that applies the write at
            // the system home (deterministic engines) or is posted back
            // from it within a window (relaxed), so ranks record the
            // home arrival order up to a one-window skew.
            recordArrival(p.acc.lineAddr, p.v);
            logTx("st.sys", p.acc, p.v);
            checkStructural(p.acc.lineAddr);
            sys_done = std::move(p.done);
        }
        if (sys_done)
            sys_done();
    });
}

void
CoherenceChecker::atomic(const MemAccess &acc, Version v, LoadDoneCb done,
                         DoneCb sys_done)
{
    std::uint32_t t_resp, t_sys;
    {
        MaybeLock lock(ctx_.lps);
        logTx("atom", acc, v);
        recordWrite(acc, v);
        ++atomics_in_flight_[acc.lineAddr];
        Pending resp(acc, v);
        const SmState &sm = sms_.at(acc.sm);
        // Same relaxed-mode floor rule as load() above.
        if (!ctx_.lps.concurrent()) {
            resp.sysFloor =
                floorOf(released_sys_, acc.lineAddr, sm.ackedSys);
            resp.gpuFloor =
                acc.scope >= Scope::Sys
                    ? 0
                    : floorOf(released_gpu_[ctx_.cfg.gpuOf(acc.gpm)],
                              acc.lineAddr, sm.ackedGpu);
        }
        resp.invAtIssue = invInFlightOn(acc.lineAddr);
        resp.loadDone = std::move(done);
        t_resp = park(std::move(resp));
        Pending sys(acc, v);
        sys.done = std::move(sys_done);
        t_sys = park(std::move(sys));
    }
    inner_->atomic(
        acc, v,
        [this, t_resp](Version pre) {
            LoadDoneCb done;
            {
                MaybeLock lock(ctx_.lps);
                Pending p = unpark(t_resp);
                logTx("atom.resp", p.acc, pre);
                verifyObserved(p.acc, "atomic", pre, p.sysFloor,
                               p.gpuFloor, p.invAtIssue);
                done = std::move(p.loadDone);
            }
            done(pre);
        },
        [this, t_sys]() {
            DoneCb sys_done;
            {
                MaybeLock lock(ctx_.lps);
                Pending p = unpark(t_sys);
                std::uint32_t *n = atomics_in_flight_.find(p.acc.lineAddr);
                if (n && --*n == 0)
                    atomics_in_flight_.erase(p.acc.lineAddr);
                recordArrival(p.acc.lineAddr, p.v);
                checkStructural(p.acc.lineAddr);
                sys_done = std::move(p.done);
            }
            if (sys_done)
                sys_done();
        });
}

void
CoherenceChecker::acquire(const MemAccess &acc, DoneCb done)
{
    std::uint32_t t;
    {
        MaybeLock lock(ctx_.lps);
        logTx("acq", acc, 0);
        Pending p(acc);
        p.done = std::move(done);
        t = park(std::move(p));
    }
    inner_->acquire(acc, [this, t]() {
        DoneCb done;
        {
            MaybeLock lock(ctx_.lps);
            Pending p = unpark(t);
            SmState &sm = sms_.at(p.acc.sm);
            const GpuId g = ctx_.cfg.gpuOf(p.acc.gpm);
            if (p.acc.scope >= Scope::Sys) {
                // A system acquire subsumes a GPU acquire: it
                // invalidates at least as much, and GPU-released data
                // is at the GPU home on the load path of every
                // narrower-scope access.
                sm.ackedSys = sys_epoch_;
                sm.ackedGpu = std::max(sm.ackedGpu, gpu_epoch_[g]);
            } else if (p.acc.scope == Scope::Gpu) {
                sm.ackedGpu = std::max(sm.ackedGpu, gpu_epoch_[g]);
            }
            ++acquires_synced_;
            done = std::move(p.done);
        }
        done();
    });
}

void
CoherenceChecker::release(const MemAccess &acc, DoneCb done)
{
    std::uint32_t t;
    {
        MaybeLock lock(ctx_.lps);
        logTx("rel", acc, 0);
        Pending p(acc);
        p.upTo = sms_.at(acc.sm).logged;
        p.done = std::move(done);
        t = park(std::move(p));
    }
    inner_->release(acc, [this, t]() {
        DoneCb done;
        {
            MaybeLock lock(ctx_.lps);
            Pending p = unpark(t);
            logTx("rel.done", p.acc, 0);
            foldRelease(p.acc, p.upTo);
            done = std::move(p.done);
        }
        done();
    });
}

void
CoherenceChecker::kernelBoundary()
{
    inner_->kernelBoundary();
}

void
CoherenceChecker::drainForBoundary(DoneCb done)
{
    std::uint32_t t;
    {
        MaybeLock lock(ctx_.lps);
        Pending p;
        p.done = std::move(done);
        t = park(std::move(p));
    }
    inner_->drainForBoundary([this, t]() {
        DoneCb done;
        {
            MaybeLock lock(ctx_.lps);
            done = std::move(unpark(t).done);
            foldBoundary();
            checkQuiescent();
        }
        done();
    });
}

bool
CoherenceChecker::mayCache(GpmId gpm, Addr line_addr) const
{
    return inner_->mayCache(gpm, line_addr);
}

bool
CoherenceChecker::invalidatesL1OnAcquire() const
{
    return inner_->invalidatesL1OnAcquire();
}

const char *
CoherenceChecker::name() const
{
    return name_.c_str();
}

void
CoherenceChecker::reportStats(StatRecorder &r) const
{
    inner_->reportStats(r);
    r.record("checker.checks", static_cast<double>(checks_));
    r.record("checker.loads_checked", static_cast<double>(loads_checked_));
    r.record("checker.writes_logged",
             static_cast<double>(writes_logged_));
    r.record("checker.releases_folded",
             static_cast<double>(releases_folded_));
    r.record("checker.acquires_synced",
             static_cast<double>(acquires_synced_));
    r.record("checker.boundary_scans",
             static_cast<double>(boundary_scans_));
    r.record("checker.transient_exemptions",
             static_cast<double>(coverage_exemptions_));
}

} // namespace hmg
