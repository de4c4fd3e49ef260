#include "trace/profiler.hh"

#include "common/flat_map.hh"
#include "common/intmath.hh"
#include "trace/workloads_impl.hh"

namespace hmg::trace
{

LocalityStats
analyzeInterGpuLocality(const Trace &t, const SystemConfig &cfg)
{
    const unsigned line_shift = floorLog2(cfg.cacheLineBytes);
    const unsigned page_shift = floorLog2(cfg.osPageBytes);
    const std::uint32_t gpms = cfg.totalGpms();

    // Pass 1: emulate first-touch page placement in program order, and
    // collect the set of GPMs accessing every line.
    FlatMap<std::uint64_t, GpmId> page_home;
    FlatMap<std::uint64_t, std::uint32_t> line_gpms;

    auto is_data = [](const MemOp &op) {
        return op.type == MemOpType::Load ||
               op.type == MemOpType::Store ||
               op.type == MemOpType::Atomic;
    };

    for (const auto &kernel : t.kernels) {
        const std::uint64_t n = kernel.ctas.size();
        for (std::uint64_t c = 0; c < n; ++c) {
            const GpmId gpm = workloads::genCtaGpm(c, n) % gpms;
            for (const auto &warp : kernel.ctas[c].warps) {
                for (const auto &op : warp.ops) {
                    if (!is_data(op))
                        continue;
                    page_home.tryEmplace(op.addr >> page_shift, gpm);
                    line_gpms[op.addr >> line_shift] |= 1u << gpm;
                }
            }
        }
    }

    // Pass 2: classify loads.
    LocalityStats s;
    for (const auto &kernel : t.kernels) {
        const std::uint64_t n = kernel.ctas.size();
        for (std::uint64_t c = 0; c < n; ++c) {
            const GpmId gpm = workloads::genCtaGpm(c, n) % gpms;
            const GpuId gpu = cfg.gpuOf(gpm);
            for (const auto &warp : kernel.ctas[c].warps) {
                for (const auto &op : warp.ops) {
                    if (op.type != MemOpType::Load)
                        continue;
                    ++s.totalLoads;
                    const GpmId home = *page_home.find(op.addr >> page_shift);
                    if (cfg.gpuOf(home) == gpu)
                        continue;
                    ++s.interGpuLoads;
                    // Is any *other* GPM of the same GPU touching this
                    // line?
                    const std::uint32_t mask =
                        *line_gpms.find(op.addr >> line_shift);
                    std::uint32_t same_gpu_mask = 0;
                    for (std::uint32_t l = 0; l < cfg.gpmsPerGpu; ++l)
                        same_gpu_mask |= 1u << cfg.gpmId(gpu, l);
                    if (mask & same_gpu_mask & ~(1u << gpm))
                        ++s.interGpuShared;
                }
            }
        }
    }
    return s;
}

} // namespace hmg::trace
