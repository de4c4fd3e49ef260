#include "core/sw_protocol.hh"

#include <utility>

namespace hmg
{

SwProtocol::SwProtocol(SystemContext &ctx, bool hierarchical,
                       bool cache_remote)
    : HomeChainModel(ctx, hierarchical, /*node_tier=*/false, cache_remote)
{
}

// -------------------------------------------------------- acquire/release

void
SwProtocol::acquire(const MemAccess &acc, DoneCb done)
{
    if (acc.scope <= Scope::Cta) {
        ctx_.engine().schedule(1, std::move(done));
        return;
    }
    // Bulk-invalidate the caches between this SM and the scope home.
    acquire_l2_invs_ += ctx_.gpm(acc.gpm).l2().invalidateAll();
    if (hier_ && acc.scope == Scope::Sys) {
        const GpuId g = ctx_.cfg.gpuOf(acc.gpm);
        for (std::uint32_t l = 0; l < ctx_.cfg.gpmsPerGpu; ++l) {
            GpmId d = ctx_.cfg.gpmId(g, l);
            if (d != acc.gpm)
                acquire_l2_invs_ += ctx_.gpm(d).l2().invalidateAll();
        }
    }
    ctx_.engine().schedule(tagLat(), std::move(done));
}

void
SwProtocol::release(const MemAccess &acc, DoneCb done)
{
    if (acc.scope <= Scope::Cta) {
        ctx_.engine().schedule(1, std::move(done));
        return;
    }
    if (hier_ && acc.scope == Scope::Gpu)
        ctx_.tracker.waitGpuLevel(acc.sm, std::move(done));
    else
        ctx_.tracker.waitSysLevel(acc.sm, std::move(done));
}

void
SwProtocol::kernelBoundary()
{
    // Every SM performs an implicit system-scope acquire at a dependent
    // kernel launch, so every L2 in the machine loses its contents.
    // Each L2 is invalidated in its owning LP (kernel boundaries are
    // quiescent points, so the posts run before any new work).
    for (auto &node : ctx_.gpms) {
        GpmNode *n = node.get();
        ctx_.lps.post(ctx_.lps.lpOfGpm(n->id()), [this, n]() {
            kernel_boundary_invs_ += n->l2().invalidateAll();
        });
    }
}

void
SwProtocol::reportStats(StatRecorder &r) const
{
    HomeChainModel::reportStats(r);
    r.record("protocol.acquire_l2_inv_lines",
             static_cast<double>(acquire_l2_invs_.total()));
    r.record("protocol.kernel_boundary_inv_lines",
             static_cast<double>(kernel_boundary_invs_.total()));
}

} // namespace hmg
