/**
 * @file
 * Per-link fault injectors and the plan that owns them (DESIGN.md §11).
 *
 * A LinkFault sits conceptually *on the wire* of one Port: after the
 * port has arbitrated a head and occupied the serializer, it asks the
 * injector for a verdict. `Deliver` optionally stretches the arrival
 * tick (transient delay fault); `Lost` means the transmission failed —
 * drop, CRC corruption, or a flap window — and the port must keep the
 * message at the head of its input and retry at retryAt() (go-back-N:
 * the blocked head preserves per-(src,dst) FIFO order, exactly like a
 * real replay buffer re-sending from the last acked sequence number).
 *
 * The injector also models the NVLink-style replay-buffer accounting:
 * every delivered transmission occupies replay-buffer bytes until its
 * (simulated) ack returns one link round trip later, and retransmissions
 * back off exponentially on consecutive loss. The protocol engines above
 * never see any of this — transient faults cost time, never messages.
 *
 * The injected links, their names and their ack latencies are the
 * fabric's (common/fabric.hh), so fault.<link>.* stats and the
 * watchdog's link lines use the same names as the noc.port.<link>.*
 * stats.
 *
 * Determinism: each link owns a private Rng stream seeded from
 * (plan seed, link index), and draws exactly one uniform per
 * transmission attempt in the port's deterministic dispatch order, so
 * serial and deterministic-merge runs replay the identical fault
 * history. In the threaded TimeWindow mode each injector is touched only
 * by its port's owning LP thread (ports are LP-affine), so no locking is
 * needed and per-link histories stay internally deterministic even
 * though cross-link interleaving may differ.
 */

#ifndef HMG_FAULT_PLAN_HH
#define HMG_FAULT_PLAN_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/fabric.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace hmg
{

/** Outcome of one transmission attempt over a faulty link. */
enum class FaultVerdict : std::uint8_t
{
    Deliver, //!< transmission succeeded (arrival may be stretched)
    Lost,    //!< dropped/corrupted/flapped; retry at retryAt()
};

/** Fault + retry state of one link direction. */
class LinkFault
{
  public:
    /**
     * @param fc the shared schedule parameters
     * @param link_id stable index of this link in the plan (seeds the
     *        private Rng stream)
     * @param ack_latency one-way latency of the link, used as the
     *        replay-buffer ack return time
     */
    LinkFault(const FaultConfig &fc, std::uint32_t link_id,
              Tick ack_latency);

    /** Add a flap window (plan construction only). */
    void addFlap(Tick down_at, Tick up_at);

    /**
     * Judge one transmission attempt of `bytes` payload bytes at tick
     * `now`, whose fault-free arrival would be `arrival`. On Deliver,
     * `arrival` may have been increased (delay fault; clamped monotone
     * per link so delivery order over the wire is preserved). On Lost,
     * the caller requeues the message and retries at retryAt().
     */
    FaultVerdict onTransmit(std::uint32_t bytes, Tick now, Tick &arrival);

    /** Absolute tick of the next retransmission attempt (valid after a
     *  Lost verdict). */
    Tick retryAt() const { return retry_at_; }

    /** Is the link inside a flap window at `now`? */
    bool isDown(Tick now) const;

    /** Any transmission ever faulted on this link? */
    bool
    faulted() const
    {
        return drops_ + corrupts_ + flap_drops_ + delays_ > 0;
    }

    /** Report the link's summable fault.* counters into `r` under
     *  relative names; FaultPlan adds the two maxima. Only called when
     *  the plan is active, so fault-free runs add zero keys. */
    void reportStats(StatRecorder &r) const;

    std::uint32_t
    maxConsecutiveLosses() const
    {
        return max_consecutive_losses_;
    }
    std::uint64_t peakReplayBytes() const { return peak_replay_bytes_; }

    /** One-line state summary for watchdog diagnostics; empty when the
     *  link is idle and clean. */
    std::string describe(Tick now) const;

  private:
    void noteLoss(std::uint32_t bytes, Tick now);
    void expireAcks(Tick now);

    const FaultConfig &fc_;
    Rng rng_;
    Tick ack_latency_;
    std::vector<std::pair<Tick, Tick>> flaps_; ///< [down, up) windows

    // --- retry (go-back-N) state ---
    std::uint32_t consecutive_losses_ = 0;
    Tick retry_at_ = 0;
    Tick first_loss_at_ = 0; ///< start of the current recovery episode
    Tick last_arrival_ = 0;  ///< monotone-delivery clamp for delay faults

    // --- replay-buffer occupancy model ---
    /** Delivered-but-unacked transmissions: (ack due tick, bytes). */
    std::deque<std::pair<Tick, std::uint32_t>> unacked_;
    std::uint64_t replay_bytes_ = 0; ///< bytes currently unacked
    std::uint64_t retry_bytes_ = 0;  ///< bytes of the head being retried
    std::uint64_t peak_replay_bytes_ = 0;

    // --- counters (fault.* stats) ---
    std::uint64_t attempts_ = 0;
    std::uint64_t drops_ = 0;
    std::uint64_t corrupts_ = 0;
    std::uint64_t flap_drops_ = 0;
    std::uint64_t delays_ = 0;
    std::uint64_t retransmits_ = 0;
    std::uint64_t recoveries_ = 0;
    std::uint32_t max_consecutive_losses_ = 0;
    /** Cycles from first loss to successful redelivery, per episode. */
    MeanStat recovery_latency_;
    Pow2Histogram recovery_hist_;
};

/**
 * Owns one LinkFault per injected fabric link (common/fabric.hh): the
 * GPU switch links, plus the GPM crossbar links when
 * cfg.fault.intraGpu. Built by the Network only when
 * cfg.fault.active(); port attachment is in noc/network.cc. Injectors
 * take their names (the fabric's link names) and ack latencies (half
 * the tier's hop latency) from the fabric. The seed index of each
 * injector is stable: GPU egresses, then GPU ingresses, then (when
 * intraGpu) GPM egresses and ingresses.
 */
class FaultPlan
{
  public:
    /** `fabric` must outlive the plan (the Network owns both). */
    FaultPlan(const SystemConfig &cfg, const Fabric &fabric);
    ~FaultPlan();

    FaultPlan(const FaultPlan &) = delete;
    FaultPlan &operator=(const FaultPlan &) = delete;

    /** The injector on fabric link `link`, or null when not injected. */
    LinkFault *at(std::uint32_t link) const { return links_[link].get(); }

    /** Per-link and aggregate fault.* statistics. */
    void reportStats(StatRecorder &r, const std::string &prefix) const;

    /** Append per-link state lines to a watchdog diagnostic. */
    void describe(std::string &out, Tick now) const;

  private:
    const Fabric &fabric_;
    /** By fabric link; null where the link is not injected. */
    std::vector<std::unique_ptr<LinkFault>> links_;
};

} // namespace hmg

#endif // HMG_FAULT_PLAN_HH
