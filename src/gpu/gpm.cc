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
    ++rx_msgs_;
    rx_bytes_ += m.bytes;
}

bool
GpmNode::mshrRegister(Addr line, GpmId via, MissCb cb)
{
    const std::uint32_t w = waiters_.take();
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
    const std::uint32_t t = parked_.take();
    parked_[t] = std::move(cb);
    return t;
}

GpmNode::ParkedCb
GpmNode::unpark(std::uint32_t ticket)
{
    ParkedCb cb = std::move(parked_[ticket]);
    hmg_assert(cb);
    parked_.free(ticket);
    return cb;
}

void
GpmNode::reportStats(StatRecorder &r) const
{
    l2_.reportStats(r, "l2");
    dram_.reportStats(r, "dram");
    r.record("mshr_merges", static_cast<double>(mshr_merges_));
    r.record("rx_msgs", static_cast<double>(rx_msgs_));
    r.record("rx_bytes", static_cast<double>(rx_bytes_));
    if (dir_)
        dir_->reportStats(r, "dir");
}

} // namespace hmg
