/**
 * @file
 * The machine's transport fabric as one plain value (Fig. 1 / Fig. 4 of
 * the paper): every link of the GPM crossbars, the inter-GPU switch
 * and, on multi-node machines, the node switch tier, with its rate,
 * latency, inputs and credit pool; the route rule that moves a message
 * from link to link; the feeder of every link input; and the tier at
 * which a PDES partition may cut the machine.
 *
 * Built from a SystemConfig alone, it is the one description read by
 * the transport (noc/network.cc wires one Port per link), the static
 * deadlock proof (verify/lint/cdg.cc draws one node per link and one
 * edge per route hop), the fault plan (fault/plan.cc names and seeds
 * its injectors by link) and the LP partitioner (sim/lp.cc cuts at the
 * cut tier's units with its lookahead). It lives in common/ so none of
 * them depends on noc/.
 *
 * Links come in one egress/ingress pair per unit of each tier, indexed
 * in this order (the order of the per-port stats and of the watchdog
 * diagnostic):
 *
 *   gpm<g>.egress,  gpm<g>.ingress    every GPM g, into its GPU crossbar
 *   gpu<u>.egress,  gpu<u>.ingress    every GPU u, into the switch
 *   node<n>.egress, node<n>.ingress   every node n; multi-node only
 *
 * A GPM-to-GPM route (same-GPM traffic never enters the fabric):
 *
 *   same GPU:   gpmE[src] -> gpmI[dst]
 *   same node:  gpmE[src] -> gpuE[su] -> gpuI[du] -> gpmI[dst]
 *   cross node: gpmE[src] -> gpuE[su] -> nodeE[sn] -> nodeI[dn]
 *               -> gpuI[du] -> gpmI[dst]
 *
 * Input numbering — round-robin order and credits depend on it, and a
 * (src, dst) pair uses one input per hop so its delivery stays FIFO:
 *
 *   gpmE[g]   0: g's NIC (the injection queue)
 *   gpmI[g]   l < gpmsPerGpu: local GPM l's egress; gpmsPerGpu: the
 *             GPU's switch ingress
 *   gpuE[u]   l: local GPM l's egress
 *   gpuI[u]   su < numGpus: GPU su's egress (global GPU ids, a slot for
 *             every GPU); numGpus + sn: the node's uplink ingress, one
 *             slot per source node (multi-node only)
 *   nodeE[n]  lg: local GPU lg's switch egress
 *   nodeI[n]  sn: node sn's egress
 *
 * Latency: a tier's hop latency splits floor-half on the egress (unit
 * to switch) and the rest on the ingress, so a route pays exactly the
 * sum of its tiers' hop latencies.
 *
 * Credit pool (the one sizing rule, see noc/port.hh): at least twice
 * the bandwidth-delay product of the port's rate over its feed latency
 * plus 8 cycles of slack for the feeder's serialization and rounding,
 * and never below nocPortQueueCapacity max-size messages. The feed
 * latency of each port is:
 *
 *   gpmE 0 (its NIC)              gpmI the GPU switch ingress latency
 *   gpuE the GPM egress latency   gpuI the GPU egress latency
 *   nodeE the GPU egress latency  nodeI the node egress latency
 *
 * A gpuI is sized for its same-tier feeder even on multi-node machines,
 * where its node-uplink inputs are fed over a longer hop; the results
 * depend on these exact pools. In a windowed (threaded PDES) partition
 * the cut tier's ingresses sit behind boundary channels whose credits
 * return up to two windows late, so their feed latency also counts
 * 2 x lookahead.
 *
 * The cut tier is the highest tier present: the GPU switch on a
 * single-node machine, the node uplinks otherwise. Its egress is the
 * only link whose hop crosses between cut units, and its egress
 * latency (half its hop latency) is the PDES lookahead. Tiers below
 * couple their units synchronously (same-tick credit returns, sibling
 * L2 scans), so a partition may not split a cut unit.
 */

#ifndef HMG_COMMON_FABRIC_HH
#define HMG_COMMON_FABRIC_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"

namespace hmg
{

/** The three switch tiers, lowest first. */
enum class LinkTier : std::uint8_t
{
    Gpm,  //!< GPM <-> GPU crossbar
    Gpu,  //!< GPU <-> inter-GPU switch
    Node, //!< node <-> inter-node switch (multi-node only)
};

/** Link direction relative to the owning unit. */
enum class LinkDir : std::uint8_t
{
    Egress,  //!< unit -> switch
    Ingress, //!< switch -> unit
};

/** One tier's shape and wire parameters. */
struct FabricTier
{
    const char *unit;    //!< "gpm", "gpu", "node": link-name prefix
    const char *hop;     //!< "intra-GPU", "inter-GPU", "inter-node"
    std::uint32_t units; //!< egress/ingress pairs; 0 = tier absent
    double bytesPerCycle;
    Tick hopLatency;     //!< unit -> switch -> unit

    /** Unit -> switch half (floor): the fault replay-ack latency and,
     *  on the cut tier, the PDES lookahead. */
    Tick egressLatency() const { return hopLatency / 2; }
    Tick ingressLatency() const { return hopLatency - hopLatency / 2; }
};

/** One directed link: a Port of the transport, a pool of the cdg. */
struct FabricLink
{
    std::string name; //!< e.g. "gpu3.ingress"
    LinkTier tier;
    LinkDir dir;
    std::uint32_t unit; //!< owning GPM, GPU or node id
    GpmId gpm;          //!< first GPM of the owning unit (its LP)
    double bytesPerCycle;
    Tick latency;
    std::uint32_t inputs;
    std::uint64_t poolBytes; //!< credit pool per input
};

/** A route step: the next link and the input queue taken there. */
struct FabricHop
{
    std::uint32_t link;
    std::uint32_t input;
};

/** What feeds one link input: another link, or (link == kNic) the
 *  injection queue of GPM `nic`. */
struct FabricFeeder
{
    std::uint32_t link;
    GpmId nic;
};

/** The port graph of one machine shape. */
class Fabric
{
  public:
    /** next() past a GPM ingress: the message is delivered. */
    static constexpr std::uint32_t kDeliver = ~std::uint32_t{0};
    /** FabricFeeder::link of an input fed by a NIC. */
    static constexpr std::uint32_t kNic = ~std::uint32_t{0};

    /**
     * @param windowed the partition runs threaded time windows, so the
     *        cut tier's ingress pools also cover the boundary channels'
     *        late credit return (see the file comment)
     */
    explicit Fabric(const SystemConfig &cfg, bool windowed = false);

    const std::vector<FabricLink> &links() const { return links_; }
    const FabricLink &link(std::uint32_t l) const { return links_[l]; }
    const FabricTier &tier(LinkTier t) const
    {
        return tiers_[static_cast<std::size_t>(t)];
    }

    /** The link of tier `t`, direction `d`, owned by unit `unit`. */
    std::uint32_t
    linkOf(LinkTier t, LinkDir d, std::uint32_t unit) const
    {
        return base_[static_cast<std::size_t>(t)] + 2 * unit +
               static_cast<std::uint32_t>(d);
    }

    /** The unit of tier `t` that contains GPM `g`. */
    std::uint32_t unitOf(LinkTier t, GpmId g) const;

    /** Where a message from `src` enters the fabric: its GPM egress,
     *  fed by its NIC. */
    FabricHop entry(GpmId src) const
    {
        return {linkOf(LinkTier::Gpm, LinkDir::Egress, src), 0};
    }

    /**
     * The hop after link `l` for a message src -> dst on its route:
     * the next link and input, or kDeliver past the destination's GPM
     * ingress. Integer arithmetic only; hot on the transport path.
     */
    FabricHop
    next(std::uint32_t l, GpmId src, GpmId dst) const
    {
        const FabricLink &k = links_[l];
        const GpuId su = src / gpms_;
        const GpuId du = dst / gpms_;
        switch (kindOf(k)) {
        case GpmEgress:
            return {su == du ? linkOf(LinkTier::Gpm, LinkDir::Ingress, dst)
                             : linkOf(LinkTier::Gpu, LinkDir::Egress, su),
                    src % gpms_};
        case GpmIngress:
            return {kDeliver, 0};
        case GpuEgress:
            if (su / gpus_per_node_ == du / gpus_per_node_)
                return {linkOf(LinkTier::Gpu, LinkDir::Ingress, du), su};
            return {linkOf(LinkTier::Node, LinkDir::Egress,
                           su / gpus_per_node_),
                    su % gpus_per_node_};
        case GpuIngress:
            return {linkOf(LinkTier::Gpm, LinkDir::Ingress, dst), gpms_};
        case NodeEgress:
            return {linkOf(LinkTier::Node, LinkDir::Ingress,
                           du / gpus_per_node_),
                    su / gpus_per_node_};
        case NodeIngress:
            break;
        }
        return {linkOf(LinkTier::Gpu, LinkDir::Ingress, du),
                num_gpus_ + su / gpus_per_node_};
    }

    /** The feeder of input `input` of link `l`. */
    FabricFeeder feeder(std::uint32_t l, std::uint32_t input) const;

    /** The highest tier present; its units are the PDES grain. */
    LinkTier cutTier() const { return cut_; }
    /** Lookahead of a cut: the cut tier's egress latency. */
    Tick lookahead() const { return tier(cut_).egressLatency(); }
    /** Does the hop out of `l` cross between cut units? (True exactly
     *  for the cut tier's egresses.) */
    bool
    crossesCut(std::uint32_t l) const
    {
        return links_[l].tier == cut_ && links_[l].dir == LinkDir::Egress;
    }

  private:
    enum Kind : std::uint8_t
    {
        GpmEgress,
        GpmIngress,
        GpuEgress,
        GpuIngress,
        NodeEgress,
        NodeIngress,
    };
    static Kind
    kindOf(const FabricLink &k)
    {
        return static_cast<Kind>(2 * static_cast<unsigned>(k.tier) +
                                 static_cast<unsigned>(k.dir));
    }

    std::uint32_t gpms_;          //!< GPMs per GPU
    std::uint32_t gpus_per_node_;
    std::uint32_t num_gpus_;
    std::array<FabricTier, 3> tiers_;
    std::array<std::uint32_t, 3> base_; //!< first link of each tier
    LinkTier cut_;
    std::vector<FabricLink> links_;
};

} // namespace hmg

#endif // HMG_COMMON_FABRIC_HH
