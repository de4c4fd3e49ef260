#include "core/protocol.hh"

#include "common/log.hh"
#include "core/hw_protocol.hh"
#include "core/simple_protocols.hh"
#include "core/sw_protocol.hh"

namespace hmg
{

void
CoherenceModel::reportStats(StatRecorder &r) const
{
    r.record("protocol.store_inv_events",
             static_cast<double>(store_inv_events_.total()));
    r.record("protocol.store_inv_lines",
             static_cast<double>(store_inv_lines_.total()));
    r.record("protocol.evict_inv_events",
             static_cast<double>(evict_inv_events_.total()));
    r.record("protocol.evict_inv_lines",
             static_cast<double>(evict_inv_lines_.total()));
    r.record("protocol.inv_msgs", static_cast<double>(inv_msgs_.total()));
}

std::unique_ptr<CoherenceModel>
makeCoherenceModel(SystemContext &ctx)
{
    switch (ctx.cfg.protocol) {
      case Protocol::NoRemoteCache:
        return std::make_unique<NoRemoteCacheModel>(ctx);
      case Protocol::SwNonHier:
        return std::make_unique<SwProtocol>(ctx, /*hierarchical=*/false);
      case Protocol::SwHier:
        return std::make_unique<SwProtocol>(ctx, /*hierarchical=*/true);
      case Protocol::Nhcc:
        return std::make_unique<HwProtocol>(ctx, /*hierarchical=*/false);
      case Protocol::Hmg:
        return std::make_unique<HwProtocol>(ctx, /*hierarchical=*/true);
      case Protocol::Ideal:
        return std::make_unique<IdealModel>(ctx);
    }
    hmg_panic("unknown protocol");
}

} // namespace hmg
