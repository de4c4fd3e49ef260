#include "gpu/gpm.hh"

#include "common/log.hh"

namespace hmg
{

GpmNode::GpmNode(Engine &engine, const SystemConfig &cfg, GpmId id,
                 bool with_directory, TagStore &tags)
    : id_(id),
      l2_(cfg.l2BytesPerGpm(), cfg.l2Ways, cfg.cacheLineBytes,
          /*write_allocate=*/true, tags),
      dram_(engine, cfg)
{
    if (with_directory) {
        dir_ = std::make_unique<Directory>(
            cfg.dirEntriesPerGpm, cfg.dirWays,
            cfg.cacheLineBytes * cfg.dirLinesPerEntry, tags);
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

template <typename Slot>
std::uint32_t
GpmNode::takeSlot(std::vector<Slot> &pool, std::uint32_t &free)
{
    std::uint32_t i = free;
    if (i == kNoWaiter) {
        hmg_assert(pool.size() < kNoWaiter);
        i = static_cast<std::uint32_t>(pool.size());
        pool.emplace_back();
    } else {
        free = pool[i].next;
    }
    return i;
}

bool
GpmNode::mshrRegister(Addr line, GpmId via, MissCb cb)
{
    const std::uint32_t w = takeSlot(waiters_, free_waiter_);
    Waiter &slot = waiters_[w];
    slot.cb = std::move(cb);
    slot.via = via;
    slot.next = kNoWaiter;

    auto [list, first] = mshr_.tryEmplace(line);
    if (first)
        list->head = w;
    else
        waiters_[list->tail].next = w;
    list->tail = w;
    if (!first)
        ++mshr_merges_;
    return first;
}

std::uint32_t
GpmNode::park(ParkedCb cb)
{
    const std::uint32_t t = takeSlot(parked_, free_parked_);
    parked_[t].cb = std::move(cb);
    return t;
}

GpmNode::ParkedCb
GpmNode::unpark(std::uint32_t ticket)
{
    Parked &p = parked_[ticket];
    hmg_assert(p.cb);
    ParkedCb cb = std::move(p.cb);
    p.next = free_parked_;
    free_parked_ = ticket;
    return cb;
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
