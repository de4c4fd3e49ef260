#include "common/fabric.hh"

#include <algorithm>

namespace hmg
{

Fabric::Fabric(const SystemConfig &cfg, bool windowed)
    : gpms_(cfg.gpmsPerGpu),
      gpus_per_node_(cfg.gpusPerNode()),
      num_gpus_(cfg.numGpus),
      tiers_{{
          {"gpm", "intra-GPU", cfg.totalGpms(),
           cfg.intraGpuPortBytesPerCycle(), cfg.intraGpuHopLatency},
          {"gpu", "inter-GPU", cfg.numGpus,
           cfg.interGpuPortBytesPerCycle(), cfg.interGpuHopLatency},
          {"node", "inter-node", cfg.numNodes > 1 ? cfg.numNodes : 0,
           cfg.interNodePortBytesPerCycle(), cfg.interNodeHopLatency},
      }},
      cut_(cfg.numNodes > 1 ? LinkTier::Node : LinkTier::Gpu)
{
    const FabricTier &gpm = tier(LinkTier::Gpm);
    const FabricTier &gpu = tier(LinkTier::Gpu);
    const FabricTier &node = tier(LinkTier::Node);
    base_ = {0, 2 * gpm.units, 2 * (gpm.units + gpu.units)};
    const Tick slack = windowed ? 2 * lookahead() : 0;

    const std::uint64_t floor_bytes =
        std::uint64_t{cfg.nocPortQueueCapacity} *
        (cfg.msgHeaderBytes + cfg.cacheLineBytes);
    auto add = [&](LinkTier t, std::uint32_t unit, GpmId first_gpm,
                   std::uint32_t egress_inputs, Tick egress_feed,
                   std::uint32_t ingress_inputs, Tick ingress_feed) {
        const FabricTier &k = tier(t);
        if (t == cut_)
            ingress_feed += slack;
        for (const LinkDir d : {LinkDir::Egress, LinkDir::Ingress}) {
            const bool eg = d == LinkDir::Egress;
            const Tick feed = eg ? egress_feed : ingress_feed;
            const auto bdp = static_cast<std::uint64_t>(
                k.bytesPerCycle * static_cast<double>(feed + 8));
            links_.push_back(
                {std::string(k.unit) + std::to_string(unit) +
                     (eg ? ".egress" : ".ingress"),
                 t, d, unit, first_gpm, k.bytesPerCycle,
                 eg ? k.egressLatency() : k.ingressLatency(),
                 eg ? egress_inputs : ingress_inputs,
                 std::max(floor_bytes, 2 * bdp)});
        }
    };

    links_.reserve(2 * (gpm.units + gpu.units + node.units));
    for (GpmId g = 0; g < gpm.units; ++g)
        add(LinkTier::Gpm, g, g, 1, 0, gpms_ + 1, gpu.ingressLatency());
    const std::uint32_t gpu_in_slots =
        node.units > 0 ? num_gpus_ + node.units : num_gpus_;
    for (GpuId u = 0; u < gpu.units; ++u)
        add(LinkTier::Gpu, u, cfg.gpmId(u, 0), gpms_,
            gpm.egressLatency(), gpu_in_slots, gpu.egressLatency());
    for (NodeId n = 0; n < node.units; ++n)
        add(LinkTier::Node, n, cfg.gpmId(cfg.gpuId(n, 0), 0),
            gpus_per_node_, gpu.egressLatency(), node.units,
            node.egressLatency());
}

std::uint32_t
Fabric::unitOf(LinkTier t, GpmId g) const
{
    switch (t) {
    case LinkTier::Gpm:
        return g;
    case LinkTier::Gpu:
        return g / gpms_;
    case LinkTier::Node:
        break;
    }
    return g / gpms_ / gpus_per_node_;
}

FabricFeeder
Fabric::feeder(std::uint32_t l, std::uint32_t input) const
{
    const FabricLink &k = links_[l];
    auto from = [this](LinkTier t, LinkDir d, std::uint32_t unit) {
        return FabricFeeder{linkOf(t, d, unit), 0};
    };
    switch (kindOf(k)) {
    case GpmEgress:
        return {kNic, k.unit};
    case GpmIngress:
        if (input < gpms_)
            return from(LinkTier::Gpm, LinkDir::Egress,
                         k.unit - k.unit % gpms_ + input);
        return from(LinkTier::Gpu, LinkDir::Ingress, k.unit / gpms_);
    case GpuEgress:
        return from(LinkTier::Gpm, LinkDir::Egress, k.unit * gpms_ + input);
    case GpuIngress:
        if (input < num_gpus_)
            return from(LinkTier::Gpu, LinkDir::Egress, input);
        return from(LinkTier::Node, LinkDir::Ingress,
                    k.unit / gpus_per_node_);
    case NodeEgress:
        return from(LinkTier::Gpu, LinkDir::Egress,
                    k.unit * gpus_per_node_ + input);
    case NodeIngress:
        break;
    }
    return from(LinkTier::Node, LinkDir::Egress, input);
}

} // namespace hmg
