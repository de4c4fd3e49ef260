/**
 * @file
 * Runtime coherence invariant checker (the `--check` robustness layer).
 *
 * CoherenceChecker is a decorator around the CoherenceModel under test:
 * every protocol entry point is forwarded to the wrapped model with
 * verification wrapped around its completion callbacks, so the checker
 * observes exactly what the SMs observe without altering protocol
 * behavior (all its introspection uses const, stat-neutral peeks).
 *
 * Invariants enforced, all against the version oracle:
 *
 *  1. Version/line integrity — a load or atomic may only return a
 *     version that some store actually produced for that line (or 0,
 *     the never-written value).
 *
 *  2. Release/acquire floors — no load past an acquire returns a value
 *     older than the matching release. Completed releases fold the
 *     releasing SM's write log into per-line (epoch, version) floor
 *     tables (system-wide for `.sys`, per-GPU for `.gpu`); an acquire
 *     acknowledges the epochs current at its completion; a later load
 *     by that SM must observe at least the acknowledged floor. The
 *     checker enforces matching-scope synchronization — the guarantee
 *     the paper's protocols are specified against.
 *
 *  3. Directory coverage (hardware protocols) — every cached non-home
 *     copy must be reachable by home directory state (directly or via
 *     the GPU sharer bit under HMG), otherwise a future store could
 *     never invalidate it. Transients are exempted precisely: sectors
 *     with in-flight invalidations, lines with an in-flight
 *     write-through from the copy's GPM, and dirty write-back copies
 *     (which travel by update, not tracking).
 *
 *  4. Dirty discipline — write-through mode must never produce a dirty
 *     L2 line; write-back mode allows at most one dirty copy per line
 *     among synchronized writers and none after a boundary drain.
 *
 *  5. Boundary quiescence — after every dependent-kernel drain (and the
 *     end-of-trace drain) each home L2 copy equals the memory oracle,
 *     and the full coverage scan of (3) holds machine-wide.
 *
 * On violation the checker dumps its transaction ring (the last
 * kTxLogEntries protocol events) and hmg_panic()s.
 */

#ifndef HMG_CORE_CHECKER_HH
#define HMG_CORE_CHECKER_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/flat_map.hh"
#include "core/protocol.hh"

namespace hmg
{

/** Decorator that verifies coherence invariants on every access. */
class CoherenceChecker : public CoherenceModel
{
  public:
    CoherenceChecker(SystemContext &ctx,
                     std::unique_ptr<CoherenceModel> inner);
    ~CoherenceChecker() override;

    // --- CoherenceModel interface (forwarded with verification) ---
    void load(const MemAccess &acc, LoadDoneCb done) override;
    void store(const MemAccess &acc, Version v, DoneCb accepted,
               DoneCb sys_done) override;
    void atomic(const MemAccess &acc, Version v, LoadDoneCb done,
                DoneCb sys_done) override;
    void acquire(const MemAccess &acc, DoneCb done) override;
    void release(const MemAccess &acc, DoneCb done) override;
    void kernelBoundary() override;
    void drainForBoundary(DoneCb done) override;
    bool mayCache(GpmId gpm, Addr line_addr) const override;
    bool invalidatesL1OnAcquire() const override;
    const char *name() const override;
    void reportStats(StatRecorder &r) const override;

    // --- hooks for the hardware protocols' invalidation tracking ---

    /** An invalidation for `sector` entered the fabric. */
    void noteInvSent(Addr sector);
    /** An invalidation for `sector` was processed at its target. */
    void noteInvDelivered(Addr sector);

    /** Total individual invariant evaluations (tests / stats). */
    std::uint64_t checksPerformed() const { return checks_; }

    /** Print the transaction ring (most recent protocol events). Runs
     *  automatically on a violation; `--check-dump-on-exit` also emits
     *  it after clean runs for coverage inspection. */
    void dumpTxRing(std::FILE *out) const;

    CoherenceModel &inner() { return *inner_; }

  private:
    /** One (epoch, version) step of a per-line release floor. */
    struct FloorEntry
    {
        std::uint64_t epoch;
        Version version;
    };
    using FloorMap = FlatMap<Addr, std::vector<FloorEntry>>;

    struct SmState
    {
        /** Program-order write log since the last covering release. */
        std::vector<std::pair<Addr, Version>> writeLog;
        std::uint64_t ackedSys = 0; //!< last acknowledged sys epoch
        std::uint64_t ackedGpu = 0; //!< last acknowledged own-GPU epoch
        /** Writes ever logged / folded, as absolute positions. Releases
         *  snapshot `logged` at issue; overlapping releases from the
         *  warps of one SM may complete in any interleaving, so a raw
         *  count would overrun the log once an earlier completion has
         *  already folded (and erased) a shared prefix. */
        std::uint64_t logged = 0;
        std::uint64_t folded = 0;
    };

    static constexpr std::size_t kTxLogEntries = 64;

    /**
     * A completion the checker wraps, parked until it fires, with what
     * its check needs. The wrapper forwarded to the model captures only
     * `this` and the ticket, so it fits a completion callback's inline
     * buffer; capturing the caller's completion, the access and the
     * floors would not, and every operation would allocate. The pool
     * grows to its peak and recycles, like GpmNode::park.
     */
    struct Pending
    {
        explicit Pending(const MemAccess &a = {}, Version ver = 0)
            : acc(a), v(ver)
        {
        }

        MemAccess acc;
        Version v;               //!< the write's version
        Version sysFloor = 0;    //!< load/atomic floors at issue
        Version gpuFloor = 0;
        std::uint64_t upTo = 0;  //!< release: write log position at issue
        bool invAtIssue = false; //!< an invalidation was in flight
        LoadDoneCb loadDone;     //!< load and atomic responses
        DoneCb done;             //!< every other completion
        std::uint32_t next = 0;  //!< free-list link
    };

    /** Hold `p` until unpark() (under the checker's lock). */
    std::uint32_t park(Pending p);
    /** Take back what was parked under `ticket` (under the lock). */
    Pending unpark(std::uint32_t ticket);

    void logTx(const char *kind, const MemAccess &acc, Version v);
    [[noreturn]] void violation(const char *fmt, ...)
        __attribute__((format(printf, 2, 3)));

    void recordWrite(const MemAccess &acc, Version v);
    /** The write-through of `v` landed at the system home. */
    void recordArrival(Addr line, Version v);
    /** Is `a` coherence-newer than `b`? Same-line writes serialize at
     *  the system home: arrival order decides when both have landed;
     *  otherwise fall back to version-id (program/issue) order. */
    bool newerThan(Version a, Version b) const;
    /** Does observing `v` fall short of the obligation `floor`? */
    bool staleAgainst(Version v, Version floor) const;
    void verifyObserved(const MemAccess &acc, const char *op, Version v,
                        Version sys_floor, Version gpu_floor,
                        bool inv_at_issue);
    Version floorOf(const FloorMap &m, Addr line,
                    std::uint64_t epoch) const;
    void fold(FloorMap &m, std::uint64_t epoch, SmState &sm,
              std::size_t count);
    void foldRelease(const MemAccess &acc, std::uint64_t upTo);
    void foldBoundary();

    bool invInFlightOn(Addr line) const;
    bool writeInFlight(GpuId gpu, Addr line) const;
    /** Is the copy of `line` held by GPM `g` coverage-exempt? */
    bool coverageExempt(GpmId g, Addr line, const CacheLine &copy) const;
    /** Directory coverage + dirty discipline for one line. */
    void checkStructural(Addr line);
    /** Coverage of one non-home copy (hardware protocols). */
    void checkCopyCovered(GpmId g, const CacheLine &copy);
    /** Machine-wide scan at a boundary drain. */
    void checkQuiescent();

    Addr sectorOf(Addr line) const;

    std::unique_ptr<CoherenceModel> inner_;
    std::string name_;
    const bool hw_;    //!< wrapped model keeps directories
    const bool hier_;  //!< wrapped model routes via GPU homes

    /** Every version ever produced, mapped to its line. */
    FlatMap<Version, Addr> version_line_;

    /** Home-arrival rank per landed version, 1-based per line. The
     *  system home is the serialization point: the order write-throughs
     *  land there is the line's coherence order, which for racy
     *  unsynchronized writers can differ from version-id order. */
    FlatMap<Version, std::uint64_t> arrival_rank_;
    /** Next arrival rank per line. */
    FlatMap<Addr, std::uint64_t> arr_next_;

    std::vector<SmState> sms_;
    FloorMap released_sys_;
    std::vector<FloorMap> released_gpu_;
    std::uint64_t sys_epoch_ = 0;
    std::vector<std::uint64_t> gpu_epoch_;

    /** In-flight invalidations by directory sector. */
    FlatMap<Addr, std::uint32_t> invs_by_sector_;
    std::uint64_t invs_in_flight_ = 0;
    /** In-flight write-throughs keyed by (gpm, line). */
    FlatMap<Addr, std::uint32_t> writes_in_flight_;
    /** In-flight atomics by line (performed away from the requester). */
    FlatMap<Addr, std::uint32_t> atomics_in_flight_;

    /** Parked completions (see Pending) and their free list's head. */
    std::vector<Pending> pending_;
    static constexpr std::uint32_t kNoPending = ~std::uint32_t{0};
    std::uint32_t free_pending_ = kNoPending;

    /** Ring of the last protocol events, dumped on violation. */
    std::vector<std::string> txlog_;
    std::size_t tx_next_ = 0;

    // Counters surfaced through reportStats.
    std::uint64_t checks_ = 0;
    std::uint64_t loads_checked_ = 0;
    std::uint64_t writes_logged_ = 0;
    std::uint64_t releases_folded_ = 0;
    std::uint64_t acquires_synced_ = 0;
    std::uint64_t boundary_scans_ = 0;
    std::uint64_t coverage_exemptions_ = 0;
};

} // namespace hmg

#endif // HMG_CORE_CHECKER_HH
