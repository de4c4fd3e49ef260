#include "noc/port.hh"

#include <utility>

#include "common/log.hh"
#include "fault/plan.hh"
#include "noc/lp_channel.hh"

namespace hmg
{

Port::Port(Engine &engine, const MessageSlab &slab, double bytes_per_cycle,
           Tick latency, std::uint32_t num_inputs,
           std::uint64_t capacity_bytes)
    : engine_(engine),
      slab_(slab),
      wire_(bytes_per_cycle),
      latency_(latency),
      capacity_(capacity_bytes),
      inputs_(num_inputs)
{
    hmg_assert(num_inputs > 0);
    hmg_assert(capacity_bytes > 0);
}

void
Port::setUpstream(std::uint32_t input, NotifyFn notify)
{
    inputs_.at(input).upstream = std::move(notify);
}

void
Port::push(std::uint32_t input, MsgRef m)
{
    Input &in = inputs_.at(input);
    hmg_assert(in.arrived_bytes < capacity_);
    hmg_assert(m.ready >= engine_.now());
    hmg_assert(m.bytes > 0);
    if (m.ready <= engine_.now()) {
        ++in.arrived;
        in.arrived_bytes += m.bytes;
    }
    in.q.push_back(m);
    ++depth_;
    schedulePump(m.ready);
}

void
Port::requeueFront(std::uint32_t input, MsgRef m)
{
    Input &in = inputs_[input];
    // The head never left: it still holds its credits (no upstream
    // notification either) and goes back in front of everything that
    // queued behind it, so per-(src,dst) FIFO order survives the loss.
    in.q.push_front(m);
    ++in.arrived;
    in.arrived_bytes += m.bytes;
    ++depth_;
    hmg_assert(m.ready > engine_.now()); // retry ticks are always future
    schedulePump(m.ready);
}

void
Port::schedulePump(Tick at)
{
    if (pump_pending_ && pump_at_ <= at)
        return;
    pump_pending_ = true;
    pump_at_ = at;
    // The event captures only `this`; a wake-up superseded by an
    // earlier one still fires but finds pump_pending_ tracking a
    // different tick, calls the idempotent pump(), and dies without
    // re-arming.
    engine_.scheduleAt(at, [this]() {
        if (pump_pending_ && pump_at_ == engine_.now())
            pump_pending_ = false;
        pump();
    });
}

Tick
Port::nextHeadArrival(Tick now) const
{
    Tick next = 0;
    for (const Input &in : inputs_) {
        if (in.q.empty() || in.q.front().ready <= now)
            continue;
        if (next == 0 || in.q.front().ready < next)
            next = in.q.front().ready;
    }
    return next;
}

void
Port::noteArrivals(Tick now)
{
    std::uint32_t backlog = 0;
    for (Input &in : inputs_) {
        while (in.arrived < in.q.size() &&
               in.q[in.arrived].ready <= now) {
            in.arrived_bytes += in.q[in.arrived].bytes;
            ++in.arrived;
        }
        backlog += in.arrived;
    }
    peak_depth_ = std::max(peak_depth_, backlog);
}

void
Port::pump()
{
    const Tick now = engine_.now();
    noteArrivals(now);
    for (;;) {
        if (wire_.freeCycle() > now) {
            // The wire is serializing into a future cycle; come back
            // when it frees (only needed if work is actually waiting).
            if (depth_ > 0)
                schedulePump(wire_.freeCycle());
            return;
        }

        // Deterministic round-robin: scan from rr_, take the first
        // input whose head has arrived and whose downstream has room.
        // A blocked head blocks its whole input — later messages of the
        // same queue never overtake it, which is what keeps
        // per-(src,dst) order FIFO.
        const std::uint32_t n = numInputs();
        std::uint32_t pick = n;
        Route route{};
        for (std::uint32_t i = 0; i < n; ++i) {
            const std::uint32_t in = (rr_ + i) % n;
            const auto &q = inputs_[in].q;
            if (q.empty() || q.front().ready > now)
                continue;
            if (route_) {
                Route r = route_(slab_.at(q.front().handle));
                if (r.xlp) {
                    // Cross-LP hop: flow control against the boundary
                    // channel's shadow credit pool.
                    if (!r.xlp->canSend())
                        continue;
                } else if (r.next && !r.next->canAccept(r.input)) {
                    continue;
                }
                route = r;
            }
            pick = in;
            break;
        }
        if (pick == n) {
            // Nothing dispatchable. Re-arm for the earliest in-flight
            // head (the push wake-up may have been coalesced away);
            // blocked heads re-pump when the downstream frees credits.
            const Tick next = nextHeadArrival(now);
            if (next != 0)
                schedulePump(next);
            return;
        }
        rr_ = (pick + 1) % n;

        Input &in = inputs_[pick];
        hmg_assert(in.arrived > 0); // eligibility required ready <= now
        MsgRef t = in.q.front();
        in.q.pop_front();
        --in.arrived;
        hmg_assert(in.arrived_bytes >= t.bytes);
        in.arrived_bytes -= t.bytes;
        --depth_;
        ++msgs_;
        qdelay_sum_ += now - t.ready;
        ++qdelay_msgs_;
        qdelay_hist_.sample(now - t.ready);

        // Occupy the wire, then hand the message to the next stage
        // tagged with its arrival tick; it waits out the flight time
        // inside the downstream queue (or the event wheel, at the last
        // hop).
        Tick arrival = wire_.serialize(now, t.bytes) + latency_;
        if (fault_ &&
            fault_->onTransmit(t.bytes, now, arrival) ==
                FaultVerdict::Lost) {
            // The wire time is spent but the transmission failed
            // (drop/CRC/flap). Go-back-N: the message returns to the
            // head of its input and re-arbitrates at the injector's
            // backoff tick. Nothing downstream or upstream observes
            // the attempt.
            t.ready = fault_->retryAt();
            requeueFront(pick, t);
            continue;
        }
        t.ready = arrival;
        if (route.xlp)
            route.xlp->send(t);
        else if (route.next)
            route.next->push(route.input, t);
        else
            deliver_(t.handle, arrival);

        // The freed slot is this hop's credit return: let the upstream
        // stage re-arbitrate immediately (same tick, deterministic).
        if (in.upstream)
            in.upstream();
    }
}

double
Port::utilization() const
{
    const Tick now = engine_.now();
    return now == 0 ? 0.0 : wire_.busyCycles() / static_cast<double>(now);
}

void
Port::dumpState(std::string &out, const std::string &name) const
{
    if (depth_ == 0)
        return;
    const Tick now = engine_.now();
    out += "  port " + name + ": " + std::to_string(depth_) +
           " queued, wire free at " +
           std::to_string(wire_.freeCycle()) + ", forwarded " +
           std::to_string(msgs_) + "\n";
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
        const Input &in = inputs_[i];
        if (in.q.empty())
            continue;
        const MsgRef &head = in.q.front();
        const Message &body = slab_.at(head.handle);
        out += "    input " + std::to_string(i) + ": " +
               std::to_string(in.q.size()) + " msgs, credits " +
               std::to_string(in.arrived_bytes) + "/" +
               std::to_string(capacity_) + "B, head " +
               toString(body.type) + " gpm" + std::to_string(body.src) +
               "->gpm" + std::to_string(body.dst) +
               (head.ready > now
                    ? " ready at " + std::to_string(head.ready)
                    : " BLOCKED since " + std::to_string(head.ready)) +
               "\n";
    }
}

void
Port::reportStats(StatRecorder &r, const std::string &prefix) const
{
    r.record(prefix + ".bytes", static_cast<double>(wire_.bytesTotal()));
    r.record(prefix + ".msgs", static_cast<double>(msgs_));
    r.record(prefix + ".util", utilization());
    r.record(prefix + ".peak_depth", static_cast<double>(peak_depth_));
    r.record(prefix + ".qdelay_cycles", static_cast<double>(qdelay_sum_));
    r.record(prefix + ".qdelay_msgs", static_cast<double>(qdelay_msgs_));
    qdelay_hist_.reportStats(r, prefix + ".qdelay_hist");
}

} // namespace hmg
