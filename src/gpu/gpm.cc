#include "gpu/gpm.hh"

#include "common/log.hh"

namespace hmg
{

GpmNode::GpmNode(Engine &engine, const SystemConfig &cfg, GpmId id,
                 bool with_directory)
    : id_(id),
      l2_(cfg.l2BytesPerGpm(), cfg.l2Ways, cfg.cacheLineBytes,
          /*write_allocate=*/true),
      dram_(engine, cfg)
{
    if (with_directory) {
        dir_ = std::make_unique<Directory>(
            cfg.dirEntriesPerGpm, cfg.dirWays,
            cfg.cacheLineBytes * cfg.dirLinesPerEntry);
    }
}

void
GpmNode::ingress(const Message &m, Tick arrival)
{
    (void)arrival;
    hmg_assert(m.dst == id_);
    ++rx_count_[static_cast<std::size_t>(m.type)];
    rx_bytes_ += m.bytes;
}

void
GpmNode::invLanded()
{
    hmg_assert(pending_invs_ > 0);
    if (--pending_invs_ == 0) {
        auto waiters = std::move(inv_waiters_);
        inv_waiters_.clear();
        for (auto &cb : waiters)
            cb();
    }
}

void
GpmNode::waitInvDrained(Callback cb)
{
    if (pending_invs_ == 0)
        cb();
    else
        inv_waiters_.push_back(std::move(cb));
}

bool
GpmNode::mshrRegister(Addr line, MissCb cb)
{
    auto [waiters, first] = mshr_.tryEmplace(line);
    waiters->push_back(std::move(cb));
    if (!first)
        ++mshr_merges_;
    return first;
}

void
GpmNode::mshrComplete(Addr line, Version v)
{
    auto *parked = mshr_.find(line);
    if (!parked)
        return;
    // Move the list out before the erase invalidates `parked`; a
    // callback may also register a new miss on this line.
    auto waiters = std::move(*parked);
    mshr_.erase(line);
    for (auto &cb : waiters)
        cb(v);
}

void
GpmNode::wbLanded()
{
    hmg_assert(pending_writebacks_ > 0);
    if (--pending_writebacks_ == 0) {
        auto waiters = std::move(wb_waiters_);
        wb_waiters_.clear();
        for (auto &cb : waiters)
            cb();
    }
}

void
GpmNode::waitWbDrained(Callback cb)
{
    if (pending_writebacks_ == 0)
        cb();
    else
        wb_waiters_.push_back(std::move(cb));
}

void
GpmNode::reportStats(StatRecorder &r) const
{
    l2_.reportStats(r, "l2");
    dram_.reportStats(r, "dram");
    r.record("mshr_merges", static_cast<double>(mshr_merges_));
    std::uint64_t rx_msgs = 0;
    for (auto c : rx_count_)
        rx_msgs += c;
    r.record("rx_msgs", static_cast<double>(rx_msgs));
    r.record("rx_bytes", static_cast<double>(rx_bytes_));
    if (dir_)
        dir_->reportStats(r, "dir");
}

} // namespace hmg
