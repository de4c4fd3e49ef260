#include "fault/plan.hh"

#include <algorithm>

#include "common/log.hh"

namespace hmg
{

LinkFault::LinkFault(const FaultConfig &fc, std::uint32_t link_id,
                     Tick ack_latency)
    // Splitmix-spread the (seed, link) pair so every link gets an
    // independent stream and adding links never shifts existing ones.
    : fc_(fc),
      rng_(fc.seed ^ (0x9e3779b97f4a7c15ull * (link_id + 1))),
      ack_latency_(ack_latency)
{
}

void
LinkFault::addFlap(Tick down_at, Tick up_at)
{
    flaps_.emplace_back(down_at, up_at == 0 ? kTickMax : up_at);
}

bool
LinkFault::isDown(Tick now) const
{
    for (const auto &[down, up] : flaps_)
        if (now >= down && now < up)
            return true;
    return false;
}

void
LinkFault::expireAcks(Tick now)
{
    while (!unacked_.empty() && unacked_.front().first <= now) {
        replay_bytes_ -= unacked_.front().second;
        unacked_.pop_front();
    }
}

void
LinkFault::noteLoss(std::uint32_t bytes, Tick now)
{
    if (consecutive_losses_ == 0) {
        first_loss_at_ = now;
        retry_bytes_ = bytes;
    }
    ++retransmits_;
    // Exponential backoff: 1x, 2x, 4x ... capped — a flapping link must
    // not saturate the engine with retry events, but recovery after a
    // short glitch stays prompt.
    const std::uint32_t exp =
        std::min(consecutive_losses_, fc_.backoffCap);
    retry_at_ = now + (fc_.retryTimeout << exp);
    ++consecutive_losses_;
    max_consecutive_losses_ =
        std::max(max_consecutive_losses_, consecutive_losses_);
    peak_replay_bytes_ =
        std::max(peak_replay_bytes_, replay_bytes_ + retry_bytes_);
}

FaultVerdict
LinkFault::onTransmit(std::uint32_t bytes, Tick now, Tick &arrival)
{
    ++attempts_;
    expireAcks(now);

    // Flap windows are schedule-driven, no RNG draw: the link is simply
    // dead. Checked first so a downed link's drop count is attributed
    // to the flap, not the background loss rate.
    if (isDown(now)) {
        ++flap_drops_;
        noteLoss(bytes, now);
        return FaultVerdict::Lost;
    }

    // One uniform draw per attempt, split over cumulative thresholds,
    // keeps the per-link stream consumption independent of which fault
    // classes are enabled.
    if (fc_.dropProb > 0.0 || fc_.corruptProb > 0.0 ||
        fc_.delayProb > 0.0) {
        const double r = rng_.uniform();
        if (r < fc_.dropProb) {
            ++drops_;
            noteLoss(bytes, now);
            return FaultVerdict::Lost;
        }
        if (r < fc_.dropProb + fc_.corruptProb) {
            ++corrupts_;
            noteLoss(bytes, now);
            return FaultVerdict::Lost;
        }
        if (r < fc_.dropProb + fc_.corruptProb + fc_.delayProb) {
            ++delays_;
            arrival += fc_.delayCycles;
        }
    }

    // Delivery order over one wire is physical: a delayed transmission
    // cannot be overtaken by a later one, so arrivals are clamped
    // monotone per link (also keeps the final-hop event order sane).
    arrival = std::max(arrival, last_arrival_);
    last_arrival_ = arrival;

    if (consecutive_losses_ > 0) {
        // End of a recovery episode: the head finally got through.
        const Tick lat = now - first_loss_at_;
        recovery_latency_.sample(static_cast<double>(lat));
        recovery_hist_.sample(lat);
        ++recoveries_;
        consecutive_losses_ = 0;
        retry_bytes_ = 0;
    }

    replay_bytes_ += bytes;
    unacked_.emplace_back(arrival + ack_latency_, bytes);
    peak_replay_bytes_ = std::max(peak_replay_bytes_, replay_bytes_);
    return FaultVerdict::Deliver;
}

void
LinkFault::reportStats(StatRecorder &r) const
{
    r.record("attempts", static_cast<double>(attempts_));
    r.record("drops", static_cast<double>(drops_));
    r.record("corrupts", static_cast<double>(corrupts_));
    r.record("flap_drops", static_cast<double>(flap_drops_));
    r.record("delays", static_cast<double>(delays_));
    r.record("retransmits", static_cast<double>(retransmits_));
    r.record("recoveries", static_cast<double>(recoveries_));
    r.record("recovery_cycles_total", recovery_latency_.sum());
    r.record("recovery_episodes",
             static_cast<double>(recovery_latency_.count()));
    recovery_hist_.reportStats(r, "recovery_hist");
}

std::string
LinkFault::describe(Tick now) const
{
    if (!faulted() && !isDown(now) && consecutive_losses_ == 0)
        return {};
    std::string s;
    s += isDown(now) ? "DOWN" : "up";
    s += ", losses " + std::to_string(drops_ + corrupts_ + flap_drops_);
    s += " (flap " + std::to_string(flap_drops_) + ")";
    s += ", retransmits " + std::to_string(retransmits_);
    if (consecutive_losses_ > 0) {
        s += ", RETRYING: " + std::to_string(consecutive_losses_) +
             " consecutive losses since tick " +
             std::to_string(first_loss_at_) + ", next attempt at " +
             std::to_string(retry_at_);
    }
    s += ", replay buffer " + std::to_string(replay_bytes_ + retry_bytes_) +
         "B (peak " + std::to_string(peak_replay_bytes_) + "B)";
    return s;
}

FaultPlan::FaultPlan(const SystemConfig &cfg, const Fabric &fabric)
    : fabric_(fabric), links_(fabric.links().size())
{
    const FaultConfig &fc = cfg.fault;
    std::vector<LinkTier> tiers = {LinkTier::Gpu};
    if (fc.intraGpu)
        tiers.push_back(LinkTier::Gpm);
    // Ack return time is the link's one-way latency, half the tier's
    // hop: ack flits ride the opposite direction of the same physical
    // link. Seed indices count links in the stable order above.
    std::uint32_t seed_index = 0;
    for (const LinkTier t : tiers)
        for (const LinkDir d : {LinkDir::Egress, LinkDir::Ingress})
            for (std::uint32_t u = 0; u < fabric.tier(t).units; ++u)
                links_[fabric.linkOf(t, d, u)] = std::make_unique<LinkFault>(
                    fc, seed_index++, fabric.tier(t).egressLatency());

    for (const LinkFlap &f : fc.flaps) {
        hmg_assert(f.gpu < fabric.tier(LinkTier::Gpu).units);
        at(fabric.linkOf(LinkTier::Gpu,
                         f.egress ? LinkDir::Egress : LinkDir::Ingress,
                         f.gpu))
            ->addFlap(f.downAt, f.upAt);
    }
}

FaultPlan::~FaultPlan() = default;

void
FaultPlan::reportStats(StatRecorder &r, const std::string &prefix) const
{
    // Counters sum across links into `.total`; the two maxima are taken
    // across links instead, because a summed maximum is nonsense.
    StatRecorder total;
    std::uint32_t max_losses = 0;
    std::uint64_t peak_replay = 0;
    for (std::size_t i = 0; i < links_.size(); ++i) {
        if (!links_[i])
            continue;
        const LinkFault &l = *links_[i];
        StatRecorder part;
        l.reportStats(part);
        total.add(part);
        part.record("max_consecutive_losses",
                    static_cast<double>(l.maxConsecutiveLosses()));
        part.record("peak_replay_bytes",
                    static_cast<double>(l.peakReplayBytes()));
        r.record(prefix + "." + fabric_.links()[i].name, part);
        max_losses = std::max(max_losses, l.maxConsecutiveLosses());
        peak_replay = std::max(peak_replay, l.peakReplayBytes());
    }
    total.record("max_consecutive_losses",
                 static_cast<double>(max_losses));
    total.record("peak_replay_bytes", static_cast<double>(peak_replay));
    r.record(prefix + ".total", total);
}

void
FaultPlan::describe(std::string &out, Tick now) const
{
    // Switch links first, each unit's egress then ingress.
    for (const LinkTier t : {LinkTier::Gpu, LinkTier::Gpm}) {
        for (std::uint32_t u = 0; u < fabric_.tier(t).units; ++u) {
            for (const LinkDir d : {LinkDir::Egress, LinkDir::Ingress}) {
                const std::uint32_t l = fabric_.linkOf(t, d, u);
                const std::string s =
                    links_[l] ? links_[l]->describe(now) : std::string();
                if (!s.empty())
                    out += "  link " + fabric_.link(l).name + ": " + s +
                           "\n";
            }
        }
    }
}

} // namespace hmg
