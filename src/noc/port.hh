/**
 * @file
 * One hop of the interconnect: a bounded-queue, bandwidth-serialized,
 * round-robin-arbitrated forwarding stage.
 *
 * Every shared resource on a message's path — a GPM's crossbar port, a
 * GPU's NVLink port into the switch — is a Port. A Port owns one input
 * queue per upstream source and a single output serializer
 * (sim/serializer.hh). Its dispatch loop ("pump") runs as an engine
 * event and, while the serializer is free, picks the next eligible
 * input head in deterministic round-robin order, occupies the wire for
 * bytes/bandwidth cycles, and moves the message into the downstream
 * port's input queue tagged with its future arrival tick (serialization
 * end + propagation latency). The queues hold 16-byte MsgRefs — a
 * handle to the body in the LP's MessageSlab (noc/message.hh), the wire
 * size and the ready tick — so a hop moves two words, never the body or
 * its closure; the port reads the body only to route its head. In-transit
 * messages therefore live inside the next hop's queue — pump events
 * capture only a port pointer, never the message.
 *
 * Backpressure is credit-style with the bounded queue itself as the
 * credit pool, counted in BYTES: a head whose downstream pool is
 * exhausted blocks its whole input (no reordering within an input), and
 * when the downstream pops a message it nudges the upstream port to
 * re-arbitrate — the synchronous credit return. Two sizing rules keep a
 * link at full bandwidth under load, both instances of the classic
 * credit-vs-bandwidth-delay-product problem:
 *
 *  - Only messages that have *arrived* (ready tick reached) occupy
 *    credits. Messages still in flight over the wire do not, or a long
 *    link's throughput would cap at pool/latency instead of its
 *    bandwidth. The in-flight population is itself bounded by the
 *    upstream serializer's rate times the link latency.
 *  - The pool must cover the credit-return round trip: after a pop
 *    unblocks the upstream, the refill takes a full hop latency to
 *    arrive, so the fabric (common/fabric.hh) sizes each queue to at
 *    least twice the feeding link's bandwidth-delay product (with a
 *    configurable floor), the standard buffer-sizing rule of
 *    credit-based flow control.
 *
 * Because a given (src, dst) pair uses the same input index at every
 * hop and an input queue is strictly FIFO, per-(src,dst) delivery order
 * is preserved end to end — the property the release/invalidation-drain
 * machinery of the coherence protocols relies on (Section IV-B,
 * "Release").
 */

#ifndef HMG_NOC_PORT_HH
#define HMG_NOC_PORT_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "noc/message.hh"
#include "sim/engine.hh"
#include "sim/serializer.hh"

namespace hmg
{

class LinkFault;
class LpChannel;

/** One arbitrated, bandwidth-limited, bounded-queue forwarding hop. */
class Port
{
  public:
    /** Where a dispatched message goes: the next hop's input queue, a
     *  cross-LP boundary channel (partitioned runs), or final delivery
     *  when both are null. */
    struct Route
    {
        Port *next = nullptr;
        std::uint32_t input = 0;
        LpChannel *xlp = nullptr;
    };

    using RouteFn = std::function<Route(const Message &)>;
    /** Takes the delivered body's handle and its arrival tick. */
    using DeliverFn = std::function<void(MsgHandle, Tick)>;
    using NotifyFn = std::function<void()>;

    /**
     * @param engine the simulation engine
     * @param slab where the bodies of queued messages live (the slab of
     *        the LP owning `engine`)
     * @param bytes_per_cycle serialization bandwidth of the output wire
     * @param latency propagation delay to the next hop (or to delivery)
     * @param num_inputs one bounded queue per upstream source
     * @param capacity_bytes credit pool per input queue, in bytes
     */
    Port(Engine &engine, const MessageSlab &slab, double bytes_per_cycle,
         Tick latency, std::uint32_t num_inputs,
         std::uint64_t capacity_bytes);

    /** Resolve a message's next hop (set once, at network wiring). */
    void setRoute(RouteFn route) { route_ = std::move(route); }

    /** Final-hop delivery (set on ingress ports instead of a route). */
    void setDeliver(DeliverFn deliver) { deliver_ = std::move(deliver); }

    /**
     * Attach a fault injector to this port's output wire (fault/plan.hh;
     * null and branch-free in fault-free runs). A Lost verdict keeps the
     * dispatched message at the head of its input — credits stay held,
     * per-(src,dst) FIFO is preserved — and re-arbitrates it at the
     * injector's retry tick: the transport-level image of a link-layer
     * replay buffer resending from the last acked sequence number.
     */
    void setFault(LinkFault *fault) { fault_ = fault; }

    /** Called whenever a slot of `input` frees, so the upstream stage
     *  can re-arbitrate a head it had to skip. */
    void setUpstream(std::uint32_t input, NotifyFn notify);

    /** True when input `input` has byte credits free (credits are
     *  consumed by arrived messages only; see the file comment). The
     *  pool may overshoot by at most one message, so "any credit free"
     *  admits any message — senders need not know sizes. */
    bool
    canAccept(std::uint32_t input) const
    {
        return inputs_[input].arrived_bytes < capacity_;
    }

    /**
     * Hand a message to this hop; it becomes eligible for arbitration
     * at the absolute tick `m.ready` (>= now). Its body must be in this
     * port's slab. The caller must have checked canAccept() — a full
     * queue is a protocol error upstream.
     */
    void push(std::uint32_t input, MsgRef m);

    /**
     * The dispatch loop. Runs as an engine event (scheduled by push and
     * by serializer-busy backoff) and synchronously when a downstream
     * slot frees. Idempotent; safe to over-schedule.
     */
    void pump();

    std::uint32_t numInputs() const
    {
        return static_cast<std::uint32_t>(inputs_.size());
    }
    std::uint64_t capacityBytes() const { return capacity_; }

    // --- occupancy / contention statistics (Fig. 11/12 plumbing) ---

    /** Fraction of elapsed cycles the output wire was occupied. */
    double utilization() const;
    std::uint32_t peakQueueDepth() const { return peak_depth_; }
    /** Cycles messages spent queued past their ready tick. */
    std::uint64_t queueingDelayCycles() const { return qdelay_sum_; }

    void reportStats(StatRecorder &r, const std::string &prefix) const;

    /**
     * Append a watchdog-diagnostic snapshot of this port — queued
     * messages, credit occupancy, blocked heads — to `out`. Quiet,
     * empty ports contribute nothing.
     */
    void dumpState(std::string &out, const std::string &name) const;

  private:
    static_assert(sizeof(MsgRef) == 16,
                  "port queues hold two-word entries, not bodies");

    struct Input
    {
        /** Queued (possibly still in-flight) messages. */
        std::deque<MsgRef> q;
        /** Prefix of `q` whose ready tick has passed (holds credits). */
        std::uint32_t arrived = 0;
        /** Bytes of that prefix, charged against the credit pool. */
        std::uint64_t arrived_bytes = 0;
        NotifyFn upstream;
    };

    /** Advance every input's arrived count to the current tick. */
    void noteArrivals(Tick now);

    /**
     * Put a just-popped message back at the head of `input`, eligible
     * again at the (future) tick `m.ready`. Used only by the fault retry
     * path: the message never left this hop, so it keeps its handle and
     * its credits, and no upstream notification fires.
     */
    void requeueFront(std::uint32_t input, MsgRef m);

    /**
     * Arrange for pump() to run at tick `at`, coalescing with an
     * already-pending wake-up at an earlier-or-equal tick. Without the
     * coalescing every push and every busy-wire backoff would add one
     * more event that re-adds itself each time it fires before the
     * backlog drains — an O(messages^2) event storm under saturation.
     */
    void schedulePump(Tick at);

    /** Earliest ready tick among input heads still in flight, or 0 if
     *  every queued head has already arrived. */
    Tick nextHeadArrival(Tick now) const;

    Engine &engine_;
    const MessageSlab &slab_;
    RateSerializer wire_;
    Tick latency_;
    std::uint64_t capacity_;
    std::vector<Input> inputs_;
    /** Next input the round-robin scan starts from. */
    std::uint32_t rr_ = 0;
    /** Total queued messages across all inputs. */
    std::uint32_t depth_ = 0;
    /** A pump event is pending at pump_at_ (wake-up coalescing). */
    bool pump_pending_ = false;
    Tick pump_at_ = 0;

    std::uint64_t msgs_ = 0;
    std::uint32_t peak_depth_ = 0;
    std::uint64_t qdelay_sum_ = 0;
    std::uint64_t qdelay_msgs_ = 0;
    /** Distribution of per-message queueing delays (cycles). */
    Pow2Histogram qdelay_hist_;

    RouteFn route_;
    DeliverFn deliver_;
    /** Fault injector on the output wire; null in fault-free runs. */
    LinkFault *fault_ = nullptr;
};

} // namespace hmg

#endif // HMG_NOC_PORT_HH
