/**
 * @file
 * Pure home-chain and sharer-set routing logic shared by the live
 * protocols (core/home_chain.cc walks the chain, core/hw_protocol.cc
 * maintains the directories) and the exhaustive model checker
 * (src/verify/).
 *
 * The chain step: every line has one system home; a GPU's home for it
 * is the GPM of that GPU with the system home's local index, and a
 * node's home is the GPU home of the node's GPU with the system home
 * GPU's local index (SharerTopology::gpuHome/nodeHome). nextHome() takes
 * one step up requester -> GPU home -> node home -> system home, merging
 * tiers that land on the same GPM.
 *
 * Table I's directory transitions boil down to three deterministic
 * decisions, all functions of the home node, the acting node ("via")
 * and the entry's sharer bitmasks:
 *
 *   - which bit records a new sharer (recordSharerBits);
 *   - which nodes receive invalidations when a store hits a Valid
 *     entry or an entry is replaced (forEachInvTarget);
 *   - which nodes receive the HMG-only re-fanned invalidations when an
 *     intermediate home processes an invalidation (forEachRefanTarget).
 *
 * The hierarchical encoding is *geometric*: a home records the acting
 * GPM by the most specific tier that separates them — same GPU ->
 * local-GPM bit, same node -> local-GPU bit, different node -> node
 * bit. With one node (the paper's machine) the node branch is dead and
 * the encoding is exactly the two-level scheme of Section V-A; with
 * more, the same rule yields the arbitrary-depth home chain
 * (node home -> GPU home -> GPM) without per-role special cases.
 *
 * Keeping them here, side-effect free and parameterized only on the
 * topology, means the model checker steps *the same* chain and routing
 * code the simulator executes — a transition verified exhaustively in
 * the model is the transition the timing simulation performs.
 */

#ifndef HMG_CORE_SHARER_OPS_HH
#define HMG_CORE_SHARER_OPS_HH

#include <cstdint>

#include "common/types.hh"

namespace hmg
{

/** Iterate the set bits of `mask`, calling fn(bit_index). */
template <typename Fn>
inline void
forEachBit(std::uint32_t mask, Fn &&fn)
{
    while (mask) {
        unsigned bit = static_cast<unsigned>(__builtin_ctz(mask));
        mask &= mask - 1;
        fn(bit);
    }
}

/**
 * Minimal topology view the routing decisions need. The simulator
 * adapts SystemConfig to this; the model checker its MckConfig.
 */
struct SharerTopology
{
    std::uint32_t numGpus;
    std::uint32_t gpmsPerGpu;
    std::uint32_t numNodes = 1;

    GpuId gpuOf(GpmId gpm) const { return gpm / gpmsPerGpu; }
    std::uint32_t localGpmOf(GpmId gpm) const { return gpm % gpmsPerGpu; }
    GpmId gpmId(GpuId gpu, std::uint32_t local) const
    {
        return gpu * gpmsPerGpu + local;
    }
    std::uint32_t gpusPerNode() const { return numGpus / numNodes; }
    NodeId nodeOf(GpuId gpu) const { return gpu / gpusPerNode(); }
    NodeId nodeOfGpm(GpmId gpm) const { return nodeOf(gpuOf(gpm)); }
    /** GPU -> sharer-mask index within its node. */
    std::uint32_t localGpuOf(GpuId gpu) const
    {
        return gpu % gpusPerNode();
    }
    GpuId gpuId(NodeId node, std::uint32_t local) const
    {
        return node * gpusPerNode() + local;
    }
    /** GPU `gpu`'s home for a line whose system home is `sys`. */
    GpmId gpuHome(GpuId gpu, GpmId sys) const
    {
        return gpmId(gpu, localGpmOf(sys));
    }
    /** Node `node`'s home for a line whose system home is `sys`. */
    GpmId nodeHome(NodeId node, GpmId sys) const
    {
        return gpuHome(gpuId(node, localGpuOf(gpuOf(sys))), sys);
    }
};

/**
 * One step up the home chain: the next home above GPM `g` for a line
 * whose system home is `h`. `gpu_tier` and `node_tier` give the chain
 * its shape (a flat chain goes straight to `h`). A tier that lands on
 * `g` itself is skipped, and one that lands on `h` is `h`, so a GPM in
 * the system home's GPU steps straight to `h`, and so does a GPU home
 * in the system home's node. At `g == h` it returns `h`.
 */
inline GpmId
nextHome(const SharerTopology &topo, bool gpu_tier, bool node_tier,
         GpmId g, GpmId h)
{
    if (gpu_tier) {
        const GpmId gh = topo.gpuHome(topo.gpuOf(g), h);
        if (gh != g)
            return gh;
    }
    if (node_tier) {
        const GpmId nh = topo.nodeHome(topo.nodeOfGpm(g), h);
        if (nh != g)
            return nh;
    }
    return h;
}

/**
 * Record node `via` as a sharer in home `h`'s entry bits: flat (NHCC)
 * entries track every GPM directly; hierarchical (HMG) entries track
 * by the most specific tier separating `via` from `h` — same-GPU
 * sharers by local GPM index, same-node sharers by local GPU index,
 * remote-node sharers by node id (Section V-A, extended one tier).
 */
inline void
recordSharerBits(const SharerTopology &topo, bool hier, GpmId h, GpmId via,
                 std::uint32_t &gpm_bits, std::uint32_t &gpu_bits,
                 std::uint32_t &node_bits)
{
    if (!hier)
        gpm_bits |= 1u << via;
    else if (topo.gpuOf(via) == topo.gpuOf(h))
        gpm_bits |= 1u << topo.localGpmOf(via);
    else if (topo.nodeOfGpm(via) == topo.nodeOfGpm(h))
        gpu_bits |= 1u << topo.localGpuOf(topo.gpuOf(via));
    else
        node_bits |= 1u << topo.nodeOfGpm(via);
}

/**
 * Forget node `via`'s tracked copy after a clean-eviction downgrade.
 * Coarser-tier bits are left alone in the hierarchical encoding: one
 * GPM's eviction says nothing about the rest of its GPU or node.
 */
inline void
dropSharerBits(const SharerTopology &topo, bool hier, GpmId h, GpmId via,
               std::uint32_t &gpm_bits, std::uint32_t &gpu_bits,
               std::uint32_t &node_bits)
{
    (void)gpu_bits;
    (void)node_bits;
    if (!hier)
        gpm_bits &= ~(1u << via);
    else if (topo.gpuOf(via) == topo.gpuOf(h))
        gpm_bits &= ~(1u << topo.localGpmOf(via));
}

/**
 * Enumerate the GPMs a home `h` must invalidate when its entry's
 * sharers go stale (a store on behalf of `via`, or a replacement with
 * `via` = kInvalidGpm). GPM-level bits address sharing L2s directly;
 * GPU-level bits address the sharing GPU's home `gpuHomeOf(gpu)` and
 * node-level bits the sharing node's home `nodeHomeOf(node)`, each of
 * which re-fans one tier down (Table I, HMG). The writer's own domains
 * and the home itself are excluded — their copies are fresh,
 * authoritative, or invalidated by a closer home on the write path.
 *
 * Emission order is deterministic: ascending GPM bits, then ascending
 * GPU bits, then ascending node bits.
 */
template <typename GpuHomeFn, typename NodeHomeFn, typename EmitFn>
inline void
forEachInvTarget(const SharerTopology &topo, bool hier, GpmId h, GpmId via,
                 std::uint32_t gpm_bits, std::uint32_t gpu_bits,
                 std::uint32_t node_bits, GpuHomeFn &&gpu_home_of,
                 NodeHomeFn &&node_home_of, EmitFn &&emit)
{
    if (!hier) {
        forEachBit(gpm_bits, [&](unsigned flat) {
            GpmId dst = static_cast<GpmId>(flat);
            if (dst != via && dst != h)
                emit(dst);
        });
        return;
    }
    const GpuId hg = topo.gpuOf(h);
    const NodeId hn = topo.nodeOf(hg);
    forEachBit(gpm_bits, [&](unsigned local) {
        GpmId dst = topo.gpmId(hg, local);
        if (dst != via && dst != h)
            emit(dst);
    });
    const GpuId via_gpu = via == kInvalidGpm ? ~GpuId{0} : topo.gpuOf(via);
    forEachBit(gpu_bits, [&](unsigned local) {
        const GpuId gpu = topo.gpuId(hn, local);
        if (gpu == via_gpu || gpu == hg)
            return;
        emit(gpu_home_of(gpu));
    });
    const NodeId via_node =
        via == kInvalidGpm ? ~NodeId{0} : topo.nodeOf(via_gpu);
    forEachBit(node_bits, [&](unsigned node) {
        if (node == via_node || node == hn)
            return;
        emit(node_home_of(static_cast<NodeId>(node)));
    });
}

/**
 * Enumerate the sharers an intermediate home `h` (GPU home or node
 * home) re-fans an incoming invalidation to: its local GPM sharers
 * directly, and — for a node home, which also tracks the other GPUs of
 * its node — each sharing GPU's home one tier down. A pure GPU home
 * never has GPU bits, reducing this to Table I's HMG-only transition.
 */
template <typename GpuHomeFn, typename EmitFn>
inline void
forEachRefanTarget(const SharerTopology &topo, GpmId h,
                   std::uint32_t gpm_bits, std::uint32_t gpu_bits,
                   GpuHomeFn &&gpu_home_of, EmitFn &&emit)
{
    const GpuId g = topo.gpuOf(h);
    forEachBit(gpm_bits, [&](unsigned local) {
        GpmId dst = topo.gpmId(g, local);
        if (dst != h)
            emit(dst);
    });
    const NodeId hn = topo.nodeOf(g);
    forEachBit(gpu_bits, [&](unsigned local) {
        const GpuId gpu = topo.gpuId(hn, local);
        if (gpu != g)
            emit(gpu_home_of(gpu));
    });
}

} // namespace hmg

#endif // HMG_CORE_SHARER_OPS_HH
