/**
 * @file
 * ML workload generators: convolution layers modeled as blocked GEMMs
 * with broadcast panel reads (AlexNet conv2, GoogLeNet conv2, overfeat
 * layer1, resnet), and recurrent layers (lstm, RNN FW / DGRAD / WGRAD)
 * with the "abundant inter-CTA communication ... in the neuron
 * connections between continuous timesteps" the paper highlights
 * (Section II-B). Layers and timesteps are dependent kernels.
 *
 * Generator shape: every kernel launches a fixed, machine-filling CTA
 * grid (>= 1 CTA per SM on the reference 512-SM machine); the `scale`
 * knob multiplies each warp's inner iteration count, so occupancy and
 * bandwidth pressure are preserved at any scale.
 *
 * Sharing keys: offsets derived from `local / 2` (the CTA's within-GPM
 * index, paired) are read by two CTAs on *every* GPM — producing both
 * the within-kernel reuse that any caching protocol can capture and the
 * cross-GPM same-GPU reuse that Fig. 3 measures and HMG's GPU home
 * exploits.
 */

#include <algorithm>

#include "trace/workloads_impl.hh"

namespace hmg::trace::workloads
{

namespace
{

constexpr std::uint64_t kMB = 1024 * 1024;
constexpr std::uint64_t kCtas = 768;

/** Deterministic, GPM-independent line offset (see file header). */
std::uint64_t
sharedOffset(std::uint64_t pair, std::uint64_t warp, std::uint64_t j,
             std::uint64_t mod)
{
    return (pair * 131 + warp * 61 + j * 17) % mod;
}

/**
 * Common blocked-GEMM layer: every warp sweeps the panels of a
 * distributed matrix A in the same order. One third of the A reads hit
 * machine-wide "hot" rows (a real GEMM re-reads the whole panel per
 * thread block); the rest are pair-keyed for coverage. B is a
 * GPM-local panel; C is the warp's private output block.
 */
Trace
gemmLayers(GenContext &ctx, const char *name, std::uint64_t a_bytes,
           std::uint64_t b_bytes, std::uint64_t c_bytes,
           std::uint32_t panels, std::uint32_t a_loads,
           std::uint32_t c_stores, std::uint32_t kernels,
           bool skewed_a = false)
{
    Trace t;
    t.name = name;

    a_bytes = ctx.scaleBytes(a_bytes);
    b_bytes = ctx.scaleBytes(b_bytes);
    c_bytes = ctx.scaleBytes(c_bytes);
    const auto sweeps = static_cast<std::uint32_t>(ctx.scaleN(panels));

    const DistArray a = allocDist(ctx, a_bytes);
    const DistArray b = allocDist(ctx, b_bytes);
    const DistArray c = allocDist(ctx, c_bytes);

    Kernel place = makePlacementKernel(kCtas);
    placeDist(place, ctx, a, 0, kCtas);
    placeDist(place, ctx, b, 0, kCtas);
    placeDist(place, ctx, c, 0, kCtas);
    t.kernels.push_back(std::move(place));

    const std::uint64_t per_gpm = (kCtas + kGenGpms - 1) / kGenGpms;
    // A scaled-down array can hold fewer lines than there are panels or
    // CTAs; each panel and each CTA's slice of B still span one line.
    const std::uint64_t panel_lines =
        std::max<std::uint64_t>(a.lines() / panels, 1);
    const std::uint64_t b_slice =
        std::max<std::uint64_t>(b.lines() / kCtas, 1);

    for (std::uint32_t k = 0; k < kernels; ++k) {
        Kernel ker;
        ker.name = std::string(name) + ".layer" + std::to_string(k);
        ker.ctas.resize(kCtas);
        for (std::uint64_t i = 0; i < kCtas; ++i) {
            const std::uint64_t pair = (i % per_gpm) / 2;
            Cta &cta = ker.ctas[i];
            cta.warps.resize(2);
            for (std::uint64_t w = 0; w < cta.warps.size(); ++w) {
                Warp &warp = cta.warps[w];
                for (std::uint32_t s = 0; s < sweeps; ++s) {
                    const std::uint32_t p = s % panels;
                    for (std::uint32_t j = 0; j < a_loads; ++j) {
                        std::uint64_t off;
                        if (skewed_a)
                            off = ctx.rng.skewed(panel_lines, 3.0);
                        else if (j % 3 == 0)
                            off = sharedOffset(0, w, j + k * 131,
                                               panel_lines);
                        else
                            off = sharedOffset(pair, 0,
                                               j + s * 5 + k * 997,
                                               panel_lines);
                        warp.ld(a.line(p * panel_lines + off), 2);
                    }
                    warp.ld(b.line(i * b.lines() / kCtas +
                                   (w * 19 + s) % b_slice),
                            2);
                }
                for (std::uint32_t j = 0; j < c_stores; ++j)
                    warp.st(c.line(i * c.lines() / kCtas +
                                   w * c_stores + j),
                            2);
            }
        }
        t.kernels.push_back(std::move(ker));
    }
    return t;
}

/**
 * Common recurrent layer: timestep kernels ping-pong between two state
 * arrays. Warps gather from the whole previous state via fixed
 * (neuron-connectivity) offsets keyed by CTA pair — read by every GPM
 * — and stream their locally-homed weight rows.
 */
Trace
rnnLayers(GenContext &ctx, const char *name, std::uint64_t state_bytes,
          std::uint64_t weight_bytes, std::uint32_t timesteps,
          std::uint32_t iters, std::uint32_t state_loads,
          std::uint32_t weight_loads, std::uint32_t state_stores,
          std::uint32_t wgrad_atomics = 0)
{
    Trace t;
    t.name = name;

    state_bytes = ctx.scaleBytes(state_bytes);
    weight_bytes = ctx.scaleBytes(weight_bytes);
    const auto rounds = static_cast<std::uint32_t>(ctx.scaleN(iters));

    const DistArray state0 = allocDist(ctx, state_bytes);
    const DistArray state1 = allocDist(ctx, state_bytes);
    const DistArray weights = allocDist(ctx, weight_bytes);
    const DistArray wgrad =
        wgrad_atomics ? allocDist(ctx, weight_bytes) : DistArray{};

    Kernel place = makePlacementKernel(kCtas);
    placeDist(place, ctx, state0, 0, kCtas);
    placeDist(place, ctx, state1, 0, kCtas);
    placeDist(place, ctx, weights, 0, kCtas);
    if (wgrad_atomics)
        placeDist(place, ctx, wgrad, 0, kCtas);
    t.kernels.push_back(std::move(place));

    const std::uint64_t state_lines = state0.lines();
    const std::uint64_t per_gpm = (kCtas + kGenGpms - 1) / kGenGpms;

    for (std::uint32_t ts = 0; ts < timesteps; ++ts) {
        Kernel ker;
        ker.name = std::string(name) + ".t" + std::to_string(ts);
        ker.ctas.resize(kCtas);
        const DistArray &prev = (ts % 2) ? state1 : state0;
        const DistArray &cur = (ts % 2) ? state0 : state1;
        for (std::uint64_t i = 0; i < kCtas; ++i) {
            const std::uint64_t pair = (i % per_gpm) / 2;
            Cta &cta = ker.ctas[i];
            cta.warps.resize(2);
            for (std::uint64_t w = 0; w < cta.warps.size(); ++w) {
                Warp &warp = cta.warps[w];
                for (std::uint32_t r = 0; r < rounds; ++r) {
                    // Gather from the previous timestep's state (fixed
                    // connectivity, shared machine-wide).
                    for (std::uint32_t j = 0; j < state_loads; ++j)
                        warp.ld(prev.line((pair * 131 + w * 61 +
                                           (r * state_loads + j) * 17 +
                                           ts * 5) %
                                          state_lines),
                                2);
                    // Locally-homed weight rows.
                    const std::uint64_t row =
                        i * weights.lines() / kCtas +
                        (w * rounds + r) * weight_loads;
                    for (std::uint32_t j = 0; j < weight_loads; ++j)
                        warp.ld(weights.line(row + j), 2);
                    // WGRAD: gradient accumulation into the block's
                    // own slice of dW (blocks own disjoint weight
                    // rows; cross-block conflicts are rare).
                    for (std::uint32_t j = 0; j < wgrad_atomics; ++j)
                        warp.atom(wgrad.line(i * wgrad.lines() / kCtas +
                                             r + j),
                                  Scope::Gpu, 4);
                }
                // Own slice of the new state.
                const std::uint64_t out =
                    i * state_lines / kCtas + w * state_stores;
                for (std::uint32_t j = 0; j < state_stores; ++j)
                    warp.st(cur.line(out + j), 2);
            }
        }
        t.kernels.push_back(std::move(ker));
    }
    return t;
}

} // namespace

Trace
makeAlexnet(GenContext &ctx)
{
    // AlexNet conv2 (Table III: 812 MB). A large, heavily re-read
    // im2col/weight matrix: the hierarchical protocols' showcase in
    // Fig. 8 (flat ~3.4x, hierarchical ~7x).
    return gemmLayers(ctx, "alexnet", /*A=*/24 * kMB, /*B=*/6 * kMB,
                      /*C=*/6 * kMB, /*panels=*/6, /*a_loads=*/6,
                      /*c_stores=*/4, /*kernels=*/3);
}

Trace
makeGooglenet(GenContext &ctx)
{
    // GoogLeNet conv2 (1.15 GB): inception branches make the panel
    // access pattern less regular (skewed draws).
    return gemmLayers(ctx, "GoogLeNet", 20 * kMB, 6 * kMB, 6 * kMB,
                      /*panels=*/5, /*a_loads=*/5, /*c_stores=*/3,
                      /*kernels=*/3, /*skewed_a=*/true);
}

Trace
makeOverfeat(GenContext &ctx)
{
    // overfeat layer1 (618 MB): a small weight tensor broadcast from
    // one GPM to the whole machine plus streaming local activations —
    // caching at any level recovers nearly everything, but the
    // no-remote-caching baseline pays a network crossing per weight
    // read (flat ~3.1x already in Figs. 2/8).
    Trace t;
    t.name = "overfeat";

    const std::uint64_t w_bytes = ctx.scaleBytes(1 * kMB);
    const std::uint64_t in_bytes = ctx.scaleBytes(24 * kMB);
    const std::uint64_t out_bytes = ctx.scaleBytes(8 * kMB);
    const auto rounds = static_cast<std::uint32_t>(ctx.scaleN(8));

    const Addr w = ctx.alloc(w_bytes);
    const DistArray in = allocDist(ctx, in_bytes);
    const DistArray out = allocDist(ctx, out_bytes);

    Kernel place = makePlacementKernel(kCtas);
    placeContiguous(place, ctx, w, w_bytes, 0, 1); // broadcast source
    placeDist(place, ctx, in, 0, kCtas);
    placeDist(place, ctx, out, 0, kCtas);
    t.kernels.push_back(std::move(place));

    const std::uint64_t w_lines = ctx.lines(w_bytes);
    // Per-CTA tiles of at least one line, as in gemmLayers().
    const std::uint64_t in_tile =
        std::max<std::uint64_t>(in.lines() / kCtas, 1);
    const std::uint64_t out_tile =
        std::max<std::uint64_t>(out.lines() / kCtas, 1);

    for (std::uint32_t k = 0; k < 2; ++k) {
        Kernel ker;
        ker.name = "overfeat.k" + std::to_string(k);
        ker.ctas.resize(kCtas);
        for (std::uint64_t i = 0; i < kCtas; ++i) {
            Cta &cta = ker.ctas[i];
            cta.warps.resize(2);
            for (std::uint64_t wi = 0; wi < cta.warps.size(); ++wi) {
                Warp &warp = cta.warps[wi];
                for (std::uint32_t r = 0; r < rounds; ++r) {
                    // Filter taps: the same small set for every warp.
                    for (std::uint32_t j = 0; j < 3; ++j)
                        warp.ld(ctx.line(w, (r * 3 + j + wi * 13) %
                                                w_lines),
                                2);
                    // Own streaming input tile.
                    const std::uint64_t chunk =
                        i * in.lines() / kCtas +
                        ((wi * rounds + r) * 3 + k * 97) % in_tile;
                    for (std::uint32_t j = 0; j < 3; ++j)
                        warp.ld(in.line(chunk + j), 2);
                    warp.st(out.line(i * out.lines() / kCtas +
                                     (wi * rounds + r) % out_tile),
                            2);
                }
            }
        }
        t.kernels.push_back(std::move(ker));
    }
    return t;
}

Trace
makeResnet(GenContext &ctx)
{
    // resnet (3.2 GB): alternating GEMM layers and residual additions;
    // residual adds re-read the previous layer's activations shifted by
    // one GPM block, creating neighbor-GPM halo traffic.
    Trace t;
    t.name = "resnet";

    const std::uint64_t a_bytes = ctx.scaleBytes(16 * kMB);
    const std::uint64_t b_bytes = ctx.scaleBytes(6 * kMB);
    const std::uint64_t c_bytes = ctx.scaleBytes(16 * kMB);
    const auto sweeps = static_cast<std::uint32_t>(ctx.scaleN(4));

    const DistArray a = allocDist(ctx, a_bytes);
    const DistArray b = allocDist(ctx, b_bytes);
    const DistArray c = allocDist(ctx, c_bytes);

    Kernel place = makePlacementKernel(kCtas);
    placeDist(place, ctx, a, 0, kCtas);
    placeDist(place, ctx, b, 0, kCtas);
    placeDist(place, ctx, c, 0, kCtas);
    t.kernels.push_back(std::move(place));

    const std::uint32_t panels = 4;
    const std::uint64_t panel_lines =
        std::max<std::uint64_t>(a.lines() / panels, 1);
    const std::uint64_t c_lines = c.lines();
    const std::uint64_t per_gpm = (kCtas + kGenGpms - 1) / kGenGpms;
    const std::uint64_t shift = c_lines / kGenGpms;

    for (std::uint32_t k = 0; k < 3; ++k) {
        Kernel ker;
        ker.name = "resnet.conv" + std::to_string(k);
        ker.ctas.resize(kCtas);
        for (std::uint64_t i = 0; i < kCtas; ++i) {
            const std::uint64_t pair = (i % per_gpm) / 2;
            Cta &cta = ker.ctas[i];
            cta.warps.resize(2);
            for (std::uint64_t w = 0; w < cta.warps.size(); ++w) {
                Warp &warp = cta.warps[w];
                for (std::uint32_t s = 0; s < sweeps; ++s) {
                    const std::uint64_t panel =
                        (s % panels) * panel_lines;
                    for (std::uint32_t j = 0; j < 4; ++j)
                        warp.ld(a.line(panel +
                                       sharedOffset(j % 2 ? pair : 0, 0,
                                                    j + s * 3 + k * 797,
                                                    panel_lines)),
                                2);
                    warp.ld(b.line(i * 53 + w * 19 + s), 2);
                }
                const std::uint64_t own =
                    i * c_lines / kCtas + w * 3;
                for (std::uint32_t j = 0; j < 3; ++j)
                    warp.st(c.line(own + j), 2);
            }
        }
        t.kernels.push_back(std::move(ker));

        // Residual addition over the freshly written activations.
        Kernel res;
        res.name = "resnet.residual" + std::to_string(k);
        res.ctas.resize(kCtas);
        for (std::uint64_t i = 0; i < kCtas; ++i) {
            Cta &cta = res.ctas[i];
            cta.warps.resize(2);
            for (std::uint64_t w = 0; w < cta.warps.size(); ++w) {
                Warp &warp = cta.warps[w];
                for (std::uint32_t r = 0; r < sweeps; ++r) {
                    const std::uint64_t own =
                        i * c_lines / kCtas + (w * sweeps + r) * 3;
                    for (std::uint32_t j = 0; j < 3; ++j) {
                        warp.ld(c.line(own + j), 2);
                        // Neighbor-GPM activation line.
                        warp.ld(c.line((own + j + shift) % c_lines), 2);
                    }
                    warp.st(c.line(own), 2);
                }
            }
        }
        t.kernels.push_back(std::move(res));
    }
    return t;
}

Trace
makeLstm(GenContext &ctx)
{
    // lstm layer2 (710 MB): four gates' worth of weights, timestep
    // kernels with machine-wide hidden-state gathers.
    return rnnLayers(ctx, "lstm", /*state=*/2 * kMB, /*weights=*/8 * kMB,
                     /*timesteps=*/6, /*iters=*/4, /*state_loads=*/3,
                     /*weight_loads=*/3, /*state_stores=*/2);
}

Trace
makeRnnFw(GenContext &ctx)
{
    // RNN layer4 FW (40 MB): small, cache-resident recurrent forward
    // pass — fine-grained producer/consumer across timesteps.
    return rnnLayers(ctx, "RNN_FW", 512 * 1024, 4 * kMB,
                     /*timesteps=*/6, /*iters=*/4, /*state_loads=*/3,
                     /*weight_loads=*/2, /*state_stores=*/2);
}

Trace
makeRnnDgrad(GenContext &ctx)
{
    // RNN layer4 DGRAD (29 MB): the backward data pass — the same
    // dependence structure reversed (different mix and seed stream).
    return rnnLayers(ctx, "RNN_DGRAD", 512 * 1024, 4 * kMB,
                     /*timesteps=*/6, /*iters=*/4, /*state_loads=*/4,
                     /*weight_loads=*/2, /*state_stores=*/2);
}

Trace
makeRnnWgrad(GenContext &ctx)
{
    // RNN layer4 WGRAD (38 MB): weight-gradient accumulation —
    // scattered `.gpu`-scoped atomics into the gradient tensor on top
    // of the timestep gathers; the tall right-most bars of Fig. 8.
    return rnnLayers(ctx, "RNN_WGRAD", 512 * 1024, 4 * kMB,
                     /*timesteps=*/5, /*iters=*/4, /*state_loads=*/3,
                     /*weight_loads=*/1, /*state_stores=*/1,
                     /*wgrad_atomics=*/1);
}

} // namespace hmg::trace::workloads
