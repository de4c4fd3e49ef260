#include "sim/lp.hh"

#include <algorithm>
#include <utility>

#include "common/fabric.hh"
#include "common/log.hh"
#include "sim/watchdog.hh"

namespace hmg
{

namespace
{

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
}

/**
 * Bounded spin, then yield. Windows are microseconds apart when every
 * LP has its own core, so a short spin wins there; on an oversubscribed
 * host a pure spin would burn whole scheduler quanta per window, so
 * after ~1k pauses the waiter hands its timeslice to whoever holds up
 * the barrier.
 */
template <typename Pred>
inline void
spinUntil(Pred ready)
{
    for (int i = 0; i < 1024; ++i) {
        if (ready())
            return;
        cpuRelax();
    }
    while (!ready())
        std::this_thread::yield();
}

} // namespace

const char *
toString(LpMode m)
{
    switch (m) {
    case LpMode::Serial:
        return "serial";
    case LpMode::DeterministicMerge:
        return "deterministic-merge";
    case LpMode::TimeWindow:
        return "time-window";
    }
    return "?";
}

bool
LpPlan::validateMap(const SystemConfig &cfg,
                    const std::vector<std::uint32_t> &lp_of_gpm,
                    std::uint32_t num_lps, Tick &lookahead_out,
                    std::string &why)
{
    if (lp_of_gpm.size() != cfg.totalGpms()) {
        why = "map covers " + std::to_string(lp_of_gpm.size()) +
              " GPMs, topology has " + std::to_string(cfg.totalGpms());
        return false;
    }
    for (std::size_t g = 0; g < lp_of_gpm.size(); ++g) {
        if (lp_of_gpm[g] >= num_lps) {
            why = "GPM " + std::to_string(g) + " mapped to LP " +
                  std::to_string(lp_of_gpm[g]) + " of " +
                  std::to_string(num_lps);
            return false;
        }
    }
    // Every cut edge must have positive lookahead. The fabric's cut
    // tier is the only one whose links cross between its units, and a
    // cut there waits out its egress latency. A cut inside a cut unit
    // is refused: GPMs of one GPU are coupled synchronously (sibling-L2
    // scans on acquire, same-tick crossbar credit returns), a
    // zero-lookahead edge conservative windows cannot cross, and on a
    // multi-node machine the GPUs of one node have no boundary channel
    // between them.
    const Fabric fabric(cfg);
    const LinkTier cut = fabric.cutTier();
    bool cuts = false;
    const auto total = static_cast<GpmId>(cfg.totalGpms());
    for (GpmId a = 0; a < total; ++a) {
        for (GpmId b = a + 1; b < total; ++b) {
            if (lp_of_gpm[a] == lp_of_gpm[b])
                continue;
            if (fabric.unitOf(cut, a) != fabric.unitOf(cut, b)) {
                cuts = true;
                continue;
            }
            const std::string lps = " but are mapped to LPs " +
                                    std::to_string(lp_of_gpm[a]) +
                                    " and " + std::to_string(lp_of_gpm[b]);
            if (cfg.gpuOf(a) == cfg.gpuOf(b))
                why = "zero-lookahead intra-GPU edge: GPMs " +
                      std::to_string(a) + " and " + std::to_string(b) +
                      " share GPU " + std::to_string(cfg.gpuOf(a)) + lps;
            else
                why = "intra-node cut: GPMs " + std::to_string(a) +
                      " and " + std::to_string(b) + " share node " +
                      std::to_string(cfg.nodeOfGpm(a)) + lps +
                      "; multi-node machines carry cross-LP traffic "
                      "only over the node uplinks";
            return false;
        }
    }
    const FabricTier &tier = fabric.tier(cut);
    if (num_lps > 1 && (!cuts || fabric.lookahead() == 0)) {
        why = cuts ? std::string(tier.hop) + " hop latency " +
                         std::to_string(tier.hopLatency) +
                         " yields zero lookahead"
                   : "partition cuts no edges (every GPM in one LP)";
        return false;
    }
    lookahead_out = cuts ? fabric.lookahead() : 0;
    return true;
}

LpPlan
LpPlan::build(const SystemConfig &cfg)
{
    LpPlan p;
    // Contiguous blocks of the fabric's cut units (GPUs single-node,
    // whole nodes multi-node): LP of unit i is floor(i * jobs / units),
    // never splitting a unit's GPMs (see validateMap).
    const Fabric fabric(cfg);
    const LinkTier cut = fabric.cutTier();
    const std::uint32_t units = fabric.tier(cut).units;
    std::uint32_t jobs = cfg.lpJobs == 0 ? 1 : cfg.lpJobs;
    jobs = std::min({jobs, units, kMaxLps});
    p.numLps = jobs;
    p.lpOfGpm.resize(cfg.totalGpms());
    for (GpmId g = 0; g < cfg.totalGpms(); ++g)
        p.lpOfGpm[g] = fabric.unitOf(cut, g) * jobs / units;
    if (jobs <= 1) {
        p.mode = LpMode::Serial;
        return p;
    }
    std::string why;
    if (!validateMap(cfg, p.lpOfGpm, jobs, p.lookahead, why))
        hmg_fatal("cannot partition into %u LPs: %s", jobs, why.c_str());
    p.mode = cfg.lpDeterministic ? LpMode::DeterministicMerge
                                 : LpMode::TimeWindow;
    return p;
}

LpDomain::LpDomain(const SystemConfig &cfg)
    : plan_(LpPlan::build(cfg)),
      mail_(std::size_t{plan_.numLps} * plan_.numLps)
{
    engines_.reserve(plan_.numLps);
    for (std::uint32_t lp = 0; lp < plan_.numLps; ++lp) {
        engines_.push_back(std::make_unique<Engine>());
        // The deterministic merge shares one insertion-order counter so
        // the cross-engine (tick, seq) order equals the order one serial
        // wheel would have stamped.
        if (plan_.mode == LpMode::DeterministicMerge)
            engines_.back()->setSeqSource(&merge_seq_);
    }
}

LpDomain::~LpDomain()
{
    // run() joins its workers; this is the exceptional-exit backstop.
    for (auto &t : workers_) {
        if (t.joinable()) {
            done_ = true;
            generation_.fetch_add(1, std::memory_order_release);
            t.join();
        }
    }
}

std::uint64_t
LpDomain::eventsExecuted() const
{
    std::uint64_t sum = 0;
    for (const auto &e : engines_)
        sum += e->eventsExecuted();
    return sum;
}

Tick
LpDomain::globalMinTick()
{
    Tick best = kTickMax;
    for (auto &e : engines_) {
        Tick t;
        std::uint64_t s;
        if (e->peekNext(t, s))
            best = std::min(best, t);
    }
    return best;
}

void
LpDomain::drainBoundaries(Tick wend)
{
    // Mailboxes first, channels second: at equal ticks a posted closure
    // must run before a freshly delivered arrival (insertion order
    // breaks the tie), preserving e.g. issue-before-land accounting.
    const std::uint32_t n = numLps();
    for (std::uint32_t s = 0; s < n; ++s) {
        for (std::uint32_t d = 0; d < n; ++d) {
            auto &row = mail_[std::size_t{s} * n + d].v;
            if (row.empty())
                continue;
            posts_ += row.size();
            Engine &eng = *engines_[d];
            while (!row.empty()) {
                eng.scheduleAt(wend, std::move(row.front()));
                row.pop_front();
            }
        }
    }
    if (drain_hook_) {
        const LpDrainResult res = drain_hook_(wend);
        boundary_msgs_ += res.delivered;
        credit_returns_ += res.credits;
        null_msgs_ += res.nulls;
    }
}

Tick
LpDomain::runSerialWatched()
{
    // Same result as a plain engines_[0]->run(): run(until) executes
    // every event with tick <= until in the identical order, so slicing
    // at the poll interval only inserts watchdog checks between event
    // batches — it is invisible to the simulation.
    Engine &e = *engines_[0];
    const Tick interval = watchdog_->pollInterval();
    Tick when;
    std::uint64_t seq;
    while (e.peekNext(when, seq)) {
        e.run(std::max(when, e.now() + interval));
        watchdog_->poll(e.now());
    }
    final_time_ = e.now();
    return final_time_;
}

Tick
LpDomain::runDeterministicMerge()
{
    // Always execute the globally minimal (tick, insertion-order) event
    // — exactly the serial wheel's total order. Every engine's clock is
    // pulled to the merge tick first, so ready-time comparisons and
    // cross-engine schedules observe the clock a serial run would.
    const std::uint32_t n = numLps();
    std::uint64_t since_poll = 0;
    for (;;) {
        Engine *best = nullptr;
        Tick bt = 0;
        std::uint64_t bs = 0;
        for (std::uint32_t lp = 0; lp < n; ++lp) {
            Tick t;
            std::uint64_t s;
            if (!engines_[lp]->peekNext(t, s))
                continue;
            if (!best || t < bt || (t == bt && s < bs)) {
                best = engines_[lp].get();
                bt = t;
                bs = s;
            }
        }
        if (!best)
            break;
        for (std::uint32_t lp = 0; lp < n; ++lp)
            engines_[lp]->syncNow(bt);
        best->runOne();
        // Event-count polling: cheap enough to sit in the merge loop,
        // frequent enough that a retry storm (many events, no progress)
        // is caught within the threshold.
        if (watchdog_ && ++since_poll >= 1024) {
            since_poll = 0;
            watchdog_->poll(bt);
        }
    }
    Tick end = 0;
    for (const auto &e : engines_)
        end = std::max(end, e->now());
    final_time_ = end;
    return end;
}

Tick
LpDomain::runTimeWindow()
{
    const std::uint32_t n = numLps();
    const Tick lookahead = plan_.lookahead;
    hmg_assert(lookahead > 0);
    for (auto &e : engines_)
        e->setAffinityChecking(true);

    workers_.reserve(n - 1);
    for (std::uint32_t lp = 1; lp < n; ++lp) {
        workers_.emplace_back([this, lp]() {
            detail::tl_current_lp = lp;
            std::uint64_t gen = 0;
            for (;;) {
                spinUntil([&]() {
                    return generation_.load(std::memory_order_acquire) !=
                           gen;
                });
                gen = generation_.load(std::memory_order_acquire);
                if (done_)
                    break;
                engines_[lp]->run(window_end_ - 1);
                arrived_.fetch_add(1, std::memory_order_release);
            }
        });
    }

    std::vector<std::uint64_t> exec_before(n, 0);
    // Posts made while assembling the run (e.g. the CTA batches the
    // scheduler ships to remote LPs) are still parked in the mailboxes:
    // deliver them at tick 0 so the first window sees their events.
    drainBoundaries(0);
    try {
        Tick wstart = globalMinTick();
        while (wstart != kTickMax) {
            const Tick wend = wstart + lookahead;
            window_end_ = wend;
            for (std::uint32_t lp = 0; lp < n; ++lp)
                exec_before[lp] = engines_[lp]->eventsExecuted();
            generation_.fetch_add(1, std::memory_order_release);
            // The main thread doubles as LP 0's worker.
            engines_[0]->run(wend - 1);
            spinUntil([&]() {
                return arrived_.load(std::memory_order_acquire) == n - 1;
            });
            arrived_.store(0, std::memory_order_relaxed);

            // ---- exclusive barrier phase ----
            ++windows_;
            for (std::uint32_t lp = 0; lp < n; ++lp) {
                if (engines_[lp]->eventsExecuted() == exec_before[lp])
                    ++stall_windows_;
            }
            drainBoundaries(wend);
            // Workers are parked at the barrier here, so the poll (and
            // any diagnostic dump it triggers) reads quiescent state.
            if (watchdog_)
                watchdog_->poll(wend);
            wstart = globalMinTick();
        }
    } catch (...) {
        // A tripped watchdog must not leave workers spinning: release
        // them with done_ set, join, then rethrow the SimHang.
        done_ = true;
        generation_.fetch_add(1, std::memory_order_release);
        for (auto &t : workers_)
            t.join();
        workers_.clear();
        for (auto &e : engines_)
            e->setAffinityChecking(false);
        throw;
    }

    done_ = true;
    generation_.fetch_add(1, std::memory_order_release);
    for (auto &t : workers_)
        t.join();
    workers_.clear();
    for (auto &e : engines_)
        e->setAffinityChecking(false);

    Tick end = 0;
    for (const auto &e : engines_)
        end = std::max(end, e->now());
    final_time_ = end;
    return end;
}

Tick
LpDomain::run()
{
    switch (plan_.mode) {
    case LpMode::Serial:
        if (watchdog_)
            return runSerialWatched();
        final_time_ = engines_[0]->run();
        return final_time_;
    case LpMode::DeterministicMerge:
        return runDeterministicMerge();
    case LpMode::TimeWindow:
        return runTimeWindow();
    }
    return 0;
}

void
LpDomain::dumpState(std::string &out) const
{
    out += "  lp domain: mode " + std::string(toString(plan_.mode)) +
           ", " + std::to_string(numLps()) + " LPs, lookahead " +
           std::to_string(lookahead()) + ", windows " +
           std::to_string(windows_) + "\n";
    for (std::uint32_t lp = 0; lp < numLps(); ++lp) {
        const Engine &e = *engines_[lp];
        out += "  lp" + std::to_string(lp) + ": tick " +
               std::to_string(e.now()) + ", " +
               std::to_string(e.pending()) + " pending events, " +
               std::to_string(e.eventsExecuted()) + " executed\n";
    }
    const std::uint32_t n = numLps();
    for (std::uint32_t s = 0; s < n; ++s)
        for (std::uint32_t d = 0; d < n; ++d)
            if (!mail_[std::size_t{s} * n + d].v.empty())
                out += "  pending boundary posts lp" +
                       std::to_string(s) + "->lp" + std::to_string(d) +
                       ": " +
                       std::to_string(
                           mail_[std::size_t{s} * n + d].v.size()) +
                       "\n";
}

void
LpDomain::reportStats(StatRecorder &r, const std::string &prefix) const
{
    // TimeWindow only: serial and deterministic runs must produce
    // bit-identical stat maps, which the differential tests compare.
    if (plan_.mode != LpMode::TimeWindow)
        return;
    r.record(prefix + ".lps", static_cast<double>(numLps()));
    r.record(prefix + ".lookahead", static_cast<double>(lookahead()));
    r.record(prefix + ".windows", static_cast<double>(windows_));
    r.record(prefix + ".boundary_msgs",
             static_cast<double>(boundary_msgs_));
    r.record(prefix + ".null_msgs", static_cast<double>(null_msgs_));
    r.record(prefix + ".credit_returns",
             static_cast<double>(credit_returns_));
    r.record(prefix + ".cross_lp_posts", static_cast<double>(posts_));
    r.record(prefix + ".lp_stall_windows",
             static_cast<double>(stall_windows_));
    if (windows_ > 0 && lookahead() > 0)
        r.record(prefix + ".lookahead_util",
                 static_cast<double>(final_time_) /
                     (static_cast<double>(windows_) *
                      static_cast<double>(lookahead())));
}

} // namespace hmg
