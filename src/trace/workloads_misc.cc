/**
 * @file
 * Remaining suite members: the cuSolver dense factorization
 * (`.gpu`-scoped), namd2.10 molecular dynamics (`.gpu`-scoped force
 * accumulation), and the two Rodinia dynamic-programming codes
 * (nw-16K's anti-diagonal wavefront and pathfinder's row sweep, the
 * suite's bulk-synchronous historical baselines).
 */

#include <algorithm>

#include "trace/workloads_impl.hh"

namespace hmg::trace::workloads
{

namespace
{

constexpr std::uint64_t kMB = 1024 * 1024;
constexpr std::uint64_t kCtas = 768;

} // namespace

Trace
makeCusolver(GenContext &ctx)
{
    // cuSolver (1.6 GB): blocked right-looking factorization. Each
    // step: a narrow panel is factorized under `.gpu`-scoped
    // synchronization, then every CTA applies the panel (broadcast
    // read) to its slice of the trailing matrix.
    Trace t;
    t.name = "cusolver";
    const std::uint64_t mat_bytes = ctx.scaleBytes(32 * kMB);
    const auto iters = static_cast<std::uint32_t>(ctx.scaleN(4));

    const DistArray mat = allocDist(ctx, mat_bytes);

    Kernel place = makePlacementKernel(kCtas);
    placeDist(place, ctx, mat, 0, kCtas);
    t.kernels.push_back(std::move(place));

    const std::uint64_t mat_lines = mat.lines();
    const std::uint32_t steps = 5;
    // A scaled-down matrix can hold fewer lines than there are CTAs;
    // each panel and each CTA's block still span at least one line.
    const std::uint64_t panel_lines =
        std::max<std::uint64_t>(mat_lines / (steps * 8), 1);
    const std::uint64_t block_lines =
        std::max<std::uint64_t>(mat_lines / kCtas, 1);

    for (std::uint32_t s = 0; s < steps; ++s) {
        const std::uint64_t panel = s * panel_lines;
        Kernel ker;
        ker.name = "cusolver.step" + std::to_string(s);
        ker.ctas.resize(kCtas);
        for (std::uint64_t i = 0; i < kCtas; ++i) {
            Cta &cta = ker.ctas[i];
            cta.warps.resize(2);
            for (std::uint64_t w = 0; w < cta.warps.size(); ++w) {
                Warp &warp = cta.warps[w];
                if (i == 0) {
                    // Panel factorization: CTA 0 owns the panel and
                    // publishes it with a `.gpu` release.
                    for (std::uint32_t r = 0; r < iters; ++r) {
                        for (std::uint32_t j = 0; j < 4; ++j)
                            warp.ld(mat.line(panel +
                                             (w * 8 + r * 4 + j) %
                                                 panel_lines),
                                    2);
                        for (std::uint32_t j = 0; j < 2; ++j)
                            warp.st(mat.line(panel +
                                             (w * 4 + r * 2 + j) %
                                                 panel_lines),
                                    2);
                    }
                    warp.relFence(Scope::Gpu, 2);
                } else {
                    // Trailing update: acquire, re-read the shared
                    // panel, update the own trailing block.
                    warp.acqFence(Scope::Gpu, 2);
                    for (std::uint32_t r = 0; r < iters; ++r) {
                        for (std::uint32_t j = 0; j < 3; ++j)
                            warp.ld(mat.line(panel +
                                             (w * 11 + r * 7 + j * 3) %
                                                 panel_lines),
                                    2);
                        const std::uint64_t own =
                            i * mat_lines / kCtas +
                            ((w * iters + r) * 4) % block_lines;
                        for (std::uint32_t j = 0; j < 3; ++j)
                            warp.ld(mat.line(own + j), 2);
                        warp.st(mat.line(own), 2);
                    }
                }
            }
        }
        t.kernels.push_back(std::move(ker));
    }
    return t;
}

Trace
makeNamd(GenContext &ctx)
{
    // namd2.10 (72 MB): pairwise force computation over patch pairs;
    // positions are read from neighbor patches (some remote) and forces
    // are accumulated with `.gpu`-scoped atomics.
    Trace t;
    t.name = "namd2.10";
    const std::uint64_t pos_bytes = ctx.scaleBytes(6 * kMB);
    const std::uint64_t force_bytes = ctx.scaleBytes(6 * kMB);
    const auto iters = static_cast<std::uint32_t>(ctx.scaleN(4));

    const DistArray pos = allocDist(ctx, pos_bytes);
    const DistArray force = allocDist(ctx, force_bytes);

    Kernel place = makePlacementKernel(kCtas);
    placeDist(place, ctx, pos, 0, kCtas);
    placeDist(place, ctx, force, 0, kCtas);
    t.kernels.push_back(std::move(place));

    const std::uint64_t pos_lines = pos.lines();
    const std::uint64_t force_lines = force.lines();
    const std::uint64_t chunk = pos_lines / kCtas;

    for (std::uint32_t ts = 0; ts < 4; ++ts) {
        Kernel ker;
        ker.name = "namd.t" + std::to_string(ts);
        ker.ctas.resize(kCtas);
        for (std::uint64_t i = 0; i < kCtas; ++i) {
            Cta &cta = ker.ctas[i];
            cta.warps.resize(2);
            // Each timestep pairs the patch with a different neighbor.
            const std::uint64_t partner = (i + 1 + ts * 3) % kCtas;
            for (std::uint64_t w = 0; w < cta.warps.size(); ++w) {
                Warp &warp = cta.warps[w];
                for (std::uint32_t r = 0; r < iters; ++r) {
                    for (std::uint32_t j = 0; j < 2; ++j)
                        warp.ld(pos.line(i * chunk + w + r * 2 + j), 2);
                    // The partner patch: re-read every iteration (the
                    // pairlist walks it repeatedly).
                    for (std::uint32_t j = 0; j < 2; ++j)
                        warp.ld(pos.line((partner * chunk + w + j) %
                                         pos_lines),
                                2);
                    warp.atom(force.line((partner * chunk + r) %
                                         force_lines),
                              Scope::Gpu, 4);
                }
                warp.st(force.line(i * chunk + w), 2);
            }
        }
        t.kernels.push_back(std::move(ker));
    }
    return t;
}

Trace
makeNw(GenContext &ctx)
{
    // nw-16K (2 GB): Needleman-Wunsch. Anti-diagonal blocks are
    // dependent kernels; every block consumes the boundary cells its
    // upper and left neighbors produced in the previous kernel —
    // inter-kernel producer/consumer across GPM boundaries.
    Trace t;
    t.name = "nw-16K";
    const std::uint64_t mat_bytes = ctx.scaleBytes(24 * kMB);
    const std::uint64_t bnd_bytes = ctx.scaleBytes(1 * kMB);
    const auto iters = static_cast<std::uint32_t>(ctx.scaleN(4));

    const DistArray mat = allocDist(ctx, mat_bytes);
    const DistArray bnd = allocDist(ctx, bnd_bytes);

    Kernel place = makePlacementKernel(kCtas);
    placeDist(place, ctx, mat, 0, kCtas);
    placeDist(place, ctx, bnd, 0, kCtas);
    t.kernels.push_back(std::move(place));

    const std::uint64_t mat_lines = mat.lines();
    const std::uint64_t bnd_lines = bnd.lines();
    const std::uint64_t chunk = mat_lines / kCtas;
    auto bnd_of = [bnd_lines](std::uint64_t c) {
        return c * bnd_lines / kCtas;
    };

    for (std::uint32_t diag = 0; diag < 6; ++diag) {
        Kernel ker;
        ker.name = "nw.diag" + std::to_string(diag);
        ker.ctas.resize(kCtas);
        for (std::uint64_t i = 0; i < kCtas; ++i) {
            Cta &cta = ker.ctas[i];
            cta.warps.resize(2);
            // Upper and left producers from the previous diagonal:
            // "left" is the adjacent CTA (same GPM); "up" sits in the
            // previous GPU's row of blocks, and the same boundary cells
            // are consulted by the consuming GPU's other GPMs as the
            // anti-diagonal sweeps through them.
            const std::uint64_t row = (kCtas + kGenGpms - 1) / kGenGpms;
            const std::uint64_t pair_in_gpm = ((i % row) / 2) * 2;
            const std::uint64_t gpu_row = (i / (row * 4)) * (row * 4);
            const std::uint64_t up =
                (gpu_row + kCtas - row * 4 + pair_in_gpm) % kCtas;
            const std::uint64_t left = (i + kCtas - 1) % kCtas;
            for (std::uint64_t w = 0; w < cta.warps.size(); ++w) {
                Warp &warp = cta.warps[w];
                for (std::uint32_t r = 0; r < iters; ++r) {
                    // Boundary cells: re-consulted throughout the block
                    // computation.
                    warp.ld(bnd.line(bnd_of(up) + r % 2), 2);
                    warp.ld(bnd.line(bnd_of(left) + r % 2), 2);
                    const std::uint64_t slice =
                        i * chunk + (w * iters + r) * 3 + diag;
                    for (std::uint32_t j = 0; j < 3; ++j)
                        warp.ld(mat.line(slice + j), 2);
                    warp.st(mat.line(slice), 2);
                }
                for (std::uint32_t j = 0; j < 2; ++j)
                    warp.st(bnd.line(bnd_of(i) + j), 2);
            }
        }
        t.kernels.push_back(std::move(ker));
    }
    return t;
}

Trace
makePathfinder(GenContext &ctx)
{
    // pathfinder (1.49 GB): row-sweep dynamic programming. Mostly
    // streaming with thin row-boundary reuse — a traditional
    // bulk-synchronous member providing the historical baseline
    // (speedups stay close to 1x for every protocol in Figs. 2/8).
    Trace t;
    t.name = "pathfinder";
    const std::uint64_t grid_bytes = ctx.scaleBytes(32 * kMB);
    const std::uint64_t row_bytes = ctx.scaleBytes(512 * 1024);
    const auto iters = static_cast<std::uint32_t>(ctx.scaleN(4));

    const DistArray grid = allocDist(ctx, grid_bytes);
    const DistArray row = allocDist(ctx, row_bytes);

    Kernel place = makePlacementKernel(kCtas);
    placeDist(place, ctx, grid, 0, kCtas);
    placeDist(place, ctx, row, 0, kCtas);
    t.kernels.push_back(std::move(place));

    const std::uint64_t grid_lines = grid.lines();
    const std::uint64_t row_lines = row.lines();
    auto grid_of = [grid_lines](std::uint64_t c) {
        return c * grid_lines / kCtas;
    };
    auto row_of = [row_lines](std::uint64_t c) {
        return c * row_lines / kCtas;
    };

    for (std::uint32_t step = 0; step < 5; ++step) {
        Kernel ker;
        ker.name = "pathfinder.row" + std::to_string(step);
        ker.ctas.resize(kCtas);
        for (std::uint64_t i = 0; i < kCtas; ++i) {
            Cta &cta = ker.ctas[i];
            cta.warps.resize(2);
            for (std::uint64_t w = 0; w < cta.warps.size(); ++w) {
                Warp &warp = cta.warps[w];
                for (std::uint32_t r = 0; r < iters; ++r) {
                    // Previous-row cells: own plus one neighbor each
                    // side.
                    warp.ld(row.line(row_of(i)), 2);
                    warp.ld(row.line(row_of((i + 1) % kCtas)), 2);
                    // Stream the own slab of the cost grid.
                    const std::uint64_t slice =
                        grid_of(i) + ((step * 2 + w) * iters + r) * 3;
                    for (std::uint32_t j = 0; j < 3; ++j)
                        warp.ld(grid.line(slice + j), 2);
                    warp.st(row.line(row_of(i)), 2);
                }
            }
        }
        t.kernels.push_back(std::move(ker));
    }
    return t;
}

} // namespace hmg::trace::workloads
