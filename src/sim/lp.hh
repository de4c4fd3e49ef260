/**
 * @file
 * Conservative parallel discrete-event simulation (PDES) across GPU
 * partitions.
 *
 * One simulation is split into one logical process (LP) per unit of the
 * fabric's cut tier (common/fabric.hh: a GPU on a single-node machine, a
 * node otherwise), or per contiguous group of them when --lp-jobs is
 * smaller, each owning a private timing-wheel Engine. The only
 * simulated couplings that cross cut units are the cut tier's links,
 * whose fixed egress propagation latency is the scheme's lookahead L:
 * an event executed at tick t can influence another LP no earlier than
 * t + L. LPs therefore run windows of L cycles in parallel and exchange
 * boundary traffic at a barrier between windows:
 *
 *   window k:  all LPs execute their local events in [W, W+L)
 *   barrier:   posted cross-LP closures are scheduled at W+L,
 *              boundary-channel messages are delivered at their true
 *              arrival ticks (all >= W+L by the lookahead argument),
 *              flow-control credits return, and the next window start
 *              is the new global minimum pending tick.
 *
 * Two execution modes exist on top of the serial fallback:
 *
 *  - DeterministicMerge (--deterministic): single-threaded. All per-LP
 *    engines share one insertion-order counter, and a merge loop always
 *    executes the globally minimal (tick, insertion-order) event — the
 *    exact total order a single serial wheel would produce, making the
 *    mode bit-identical to the serial engine by construction. Used by
 *    the differential tests to prove the partitioning sound.
 *
 *  - TimeWindow (default with --lp-jobs > 1): real threads, windows as
 *    above. Relaxations are delay-only (credits and cross-LP posts can
 *    land up to one window late; per-(src,dst) FIFO order is
 *    preserved), so the runtime coherence checker and the litmus suite
 *    still hold; cycle counts may differ slightly from serial.
 *
 * DESIGN.md §10 derives the lookahead from the cut tier and spells out
 * the determinism-mode merge rule.
 */

#ifndef HMG_SIM_LP_HH
#define HMG_SIM_LP_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/engine.hh"

namespace hmg
{

class Watchdog;

/** How a partitioned run executes. */
enum class LpMode
{
    Serial,             ///< one LP, the classic single-wheel loop
    DeterministicMerge, ///< N wheels, serial (tick, insertion-order) merge
    TimeWindow,         ///< N wheels, threaded conservative windows
};

const char *toString(LpMode m);

/**
 * The static partition: which LP owns each GPM, and the lookahead of
 * the cross-LP edges. Both are read from the fabric's cut tier
 * (common/fabric.hh): the partition grain is a cut unit — a GPU on a
 * single-node machine, a whole node otherwise — and the lookahead is
 * the cut tier's egress latency (half its hop latency). GPMs of one GPU
 * share synchronous couplings (sibling-L2 scans on acquire, the
 * intra-GPU crossbar's same-tick credit returns), i.e. zero-lookahead
 * edges, and the transport's boundary channels exist only on the cut
 * tier (noc/network.cc), so no cut may split a cut unit.
 */
struct LpPlan
{
    std::uint32_t numLps = 1;
    std::vector<std::uint32_t> lpOfGpm; ///< GpmId -> owning LP
    Tick lookahead = 0;                 ///< min latency of cross-LP edges
    LpMode mode = LpMode::Serial;

    /**
     * Validate an explicit GPM->LP map against the topology: every edge
     * that crosses LPs must have positive lookahead. Rejects (returning
     * false and a reason) any map that separates two GPMs of one GPU —
     * a zero-lookahead intra-GPU edge — any multi-node map that
     * separates two GPUs of one node (the boundary channels exist only
     * at the node uplinks), and any topology whose cut-tier hop
     * latency yields zero lookahead. On success `lookahead_out` is the
     * cut tier's egress latency (0 when nothing is cut).
     */
    static bool validateMap(const SystemConfig &cfg,
                            const std::vector<std::uint32_t> &lp_of_gpm,
                            std::uint32_t num_lps, Tick &lookahead_out,
                            std::string &why);

    /**
     * Build the plan for `cfg`: contiguous blocks of cut units,
     * `cfg.lpJobs` clamped to the cut unit count, Serial when one LP
     * results. Fatal when the requested partition fails validateMap
     * (only possible when the configured cut-tier latency is < 2
     * cycles).
     */
    static LpPlan build(const SystemConfig &cfg);
};

/** Most LPs a plan cuts a machine into. */
constexpr std::uint32_t kMaxLps = 16;

namespace detail
{
// LP index of the executing worker (0 on the main thread), set once at
// worker start.
inline thread_local std::uint32_t tl_current_lp = 0;
} // namespace detail

/**
 * A `T` on host lines of its own. An array of them, indexed by LP, is
 * state each LP thread writes only in its own slot, and no host line
 * is written by two LPs.
 */
template <typename T>
struct alignas(kHostLineBytes) LpSlot
{
    T v{};
};

static_assert(alignof(LpSlot<char>) == kHostLineBytes);

/**
 * A per-LP sharded counter: each LP increments its own slot, so hot
 * data-path statistics never bounce lines between LP threads. Reads
 * (total()) are reporting-time only.
 */
class LpCounter
{
  public:
    LpCounter &
    operator++()
    {
        ++slots_[detail::tl_current_lp].v;
        return *this;
    }

    LpCounter &
    operator+=(std::uint64_t d)
    {
        slots_[detail::tl_current_lp].v += d;
        return *this;
    }

    std::uint64_t
    total() const
    {
        std::uint64_t sum = 0;
        for (const LpSlot<std::uint64_t> &s : slots_)
            sum += s.v;
        return sum;
    }

  private:
    LpSlot<std::uint64_t> slots_[kMaxLps] = {};
};

/** Messages + credits one barrier drain moved across LP boundaries. */
struct LpDrainResult
{
    std::uint64_t delivered = 0; ///< boundary messages delivered
    std::uint64_t credits = 0;   ///< flow-control credit returns applied
    std::uint64_t nulls = 0;     ///< channels with nothing to carry
                                 ///  (pure time-advance "null messages")
};

/**
 * The LP runtime: owns the per-LP engines, the window barrier, the
 * cross-LP post mailboxes, and the synchronization statistics. The
 * Network registers one barrier-drain hook that moves boundary-channel
 * traffic between windows.
 */
class LpDomain
{
  public:
    explicit LpDomain(const SystemConfig &cfg);
    ~LpDomain();

    LpDomain(const LpDomain &) = delete;
    LpDomain &operator=(const LpDomain &) = delete;

    const LpPlan &plan() const { return plan_; }
    LpMode mode() const { return plan_.mode; }
    std::uint32_t numLps() const { return plan_.numLps; }
    Tick lookahead() const { return plan_.lookahead; }

    /** True when LP worker threads actually run concurrently. */
    bool concurrent() const { return plan_.mode == LpMode::TimeWindow; }

    Engine &engine(std::uint32_t lp) { return *engines_[lp]; }
    const Engine &engine(std::uint32_t lp) const { return *engines_[lp]; }
    std::uint32_t lpOfGpm(GpmId g) const { return plan_.lpOfGpm[g]; }
    Engine &engineOfGpm(GpmId g) { return *engines_[plan_.lpOfGpm[g]]; }

    /** The LP whose worker thread we are on (0 outside workers). */
    static std::uint32_t currentLp() { return detail::tl_current_lp; }

    /**
     * Run `fn` in LP `lp`'s execution context. Immediate (synchronous)
     * when not concurrent or already on `lp`; otherwise enqueued to a
     * single-writer mailbox and scheduled on `lp`'s engine at the next
     * window boundary — a delay-only relaxation.
     */
    template <typename F>
    void
    post(std::uint32_t lp, F &&fn)
    {
        if (!concurrent() || lp == currentLp()) {
            fn();
            return;
        }
        mail_[currentLp() * numLps() + lp].v.emplace_back(
            std::forward<F>(fn));
    }

    /** Serialize the runtime checker's bookkeeping when concurrent.
     *  Recursive: completion callbacks may re-enter locked paths.
     *  MaybeLock no-ops in serial/deterministic modes, so the
     *  bit-identical paths never take it. */
    std::recursive_mutex &modelMutex() { return model_mu_; }

    /** Barrier-phase hook moving boundary traffic (set by Network). */
    using DrainHook = std::function<LpDrainResult(Tick wend)>;
    void setDrainHook(DrainHook hook) { drain_hook_ = std::move(hook); }

    /**
     * Run the whole simulation to completion in the plan's mode.
     * @return final simulated time (max over LP engines).
     */
    Tick run();

    /**
     * Arm (or disarm, with null) the no-progress watchdog. Every run
     * mode polls it from *outside* the event stream — sliced engine
     * runs in serial mode, every ~1K merged events in deterministic
     * merge, the barrier phase in time-window mode — so polling never
     * perturbs event order or the final simulated time. A poll that
     * trips throws SimHang out of run(); the time-window loop shuts its
     * workers down first. Unset in fault-free runs (sim/watchdog.hh).
     */
    void setWatchdog(Watchdog *wd) { watchdog_ = wd; }

    /** Append per-LP engine clocks, pending-event counts and pending
     *  cross-LP mailbox depths to a watchdog diagnostic. */
    void dumpState(std::string &out) const;

    /** Events executed across all LP engines. */
    std::uint64_t eventsExecuted() const;

    /** Record pdes.* sync-overhead stats (TimeWindow runs only, so the
     *  serial and deterministic stat maps stay bit-identical). */
    void reportStats(StatRecorder &r, const std::string &prefix) const;

    // Sync-overhead observability (BENCH_engine.json "pdes" section).
    std::uint64_t windows() const { return windows_; }
    std::uint64_t boundaryMsgs() const { return boundary_msgs_; }

  private:
    Tick runTimeWindow();
    Tick runDeterministicMerge();
    /** Serial loop sliced at the watchdog's poll interval. */
    Tick runSerialWatched();

    /** Barrier phase: drain mailboxes then channels into [wend, ...). */
    void drainBoundaries(Tick wend);

    /** Global minimum pending tick, or kTickMax when all idle. */
    Tick globalMinTick();

    LpPlan plan_;
    std::vector<std::unique_ptr<Engine>> engines_;

    /** Shared insertion-order counter (DeterministicMerge). */
    std::uint64_t merge_seq_ = 0;

    /** Cross-LP posts, one single-writer row per (src, dst) LP pair;
     *  src's worker appends during a window, the main thread drains at
     *  the barrier (the barrier itself publishes the rows) and clears
     *  the row, which keeps its capacity, so a post allocates only
     *  while a row grows past its largest window. Each row owns its
     *  host lines: neighbouring rows have different writers. */
    std::vector<LpSlot<std::vector<Engine::Callback>>> mail_;

    DrainHook drain_hook_;

    /** Hang detector, polled by the run loops; null when unarmed. */
    Watchdog *watchdog_ = nullptr;

    // Serializes the checker's paths; their order inside a window is
    // not simulated time.
    std::recursive_mutex model_mu_;

    // --- TimeWindow thread coordination ---
    // Barrier: acquire/release pairs publish each window's work to the
    // barrier phase and vice versa.
    std::atomic<std::uint32_t> arrived_{0};
    // Window generation, bumped by the main thread to release workers
    // into the next window.
    std::atomic<std::uint64_t> generation_{0};
    /** Written by main before the generation bump (release) publishes
     *  them; read by workers after the acquire. */
    Tick window_end_ = 0;
    bool done_ = false;
    // Worker threads for LPs 1..N-1 (main runs LP 0).
    std::vector<std::thread> workers_;

    // Sync-overhead stats (main thread only).
    std::uint64_t windows_ = 0;
    std::uint64_t boundary_msgs_ = 0;
    std::uint64_t null_msgs_ = 0;
    std::uint64_t credit_returns_ = 0;
    std::uint64_t posts_ = 0;
    std::uint64_t stall_windows_ = 0;
    Tick final_time_ = 0;
};

/**
 * Scoped guard for the model mutex that collapses to a no-op unless LP
 * workers actually run concurrently — serial and deterministic-merge
 * runs pay nothing. Its one user is the coherence checker, whose
 * oracle and ledgers every LP reads and writes.
 */
class MaybeLock
{
  public:
    explicit MaybeLock(LpDomain &lps)
    {
        if (lps.concurrent()) {
            mu_ = &lps.modelMutex();
            mu_->lock();
        }
    }
    ~MaybeLock()
    {
        if (mu_)
            mu_->unlock();
    }
    MaybeLock(const MaybeLock &) = delete;
    MaybeLock &operator=(const MaybeLock &) = delete;

  private:
    // The domain's model mutex, null when serial.
    std::recursive_mutex *mu_ = nullptr;
};

} // namespace hmg

#endif // HMG_SIM_LP_HH
