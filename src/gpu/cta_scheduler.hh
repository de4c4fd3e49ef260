/**
 * @file
 * Contiguous CTA scheduling over the GPM hierarchy and dependent-kernel
 * sequencing.
 *
 * The paper's simulator "inherits the contiguous CTA scheduling and
 * first-touch page placement policies from prior work [MCM-GPU,
 * NUMA-aware multi-GPU] to maximize data locality" (Section VI):
 * consecutive CTA ids are packed onto the same GPM so that neighboring
 * CTAs — which tend to touch neighboring data — share an L2 and a DRAM
 * partition.
 *
 * Kernels in a trace are dependent: each launches only after the
 * previous one completes, all in-flight writes have drained, and the
 * implicit system-scope acquire has run (L1 invalidation everywhere
 * plus the protocol's kernelBoundary() maintenance).
 */

#ifndef HMG_GPU_CTA_SCHEDULER_HH
#define HMG_GPU_CTA_SCHEDULER_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "core/protocol.hh"
#include "gpu/sm.hh"
#include "trace/trace.hh"

namespace hmg
{

/** Drives a Trace through the SMs. */
class CtaScheduler
{
  public:
    CtaScheduler(SystemContext &ctx, CoherenceModel &model,
                 std::vector<std::unique_ptr<Sm>> &sms);

    /** Execute `trace` to completion; `on_done` runs at the end. */
    void run(const trace::Trace &trace, std::function<void()> on_done);

    /**
     * The GPM that kernel-static contiguous scheduling assigns CTA
     * `cta_idx` of a `num_ctas`-CTA kernel to. Exposed so the trace
     * profiler (Fig. 3) can reason about placement without simulating.
     */
    static GpmId ctaGpm(std::uint64_t cta_idx, std::uint64_t num_ctas,
                        std::uint32_t total_gpms);

    std::uint64_t kernelsLaunched() const { return kernels_launched_; }

    /** CTAs of the running kernel not yet retired (watchdog
     *  diagnostics only, never a simulated value). */
    std::uint64_t
    ctasRemaining() const
    {
        return ctas_remaining_.load(std::memory_order_relaxed);
    }

  private:
    void startKernel(std::size_t idx);
    void feedGpm(GpmId gpm);
    void ctaFinished(GpmId gpm);
    void kernelFinished();

    SystemContext &ctx_;
    CoherenceModel &model_;
    std::vector<std::unique_ptr<Sm>> &sms_;

    const trace::Trace *trace_ = nullptr;
    std::function<void()> on_done_;
    std::size_t kernel_idx_ = 0;
    /** CTAs of the running kernel not yet retired. Atomic because each
     *  CTA retires on its GPM's LP thread; the count is a pure join, so
     *  the order of decrements is not observable. */
    std::atomic<std::uint64_t> ctas_remaining_{0};
    std::uint64_t kernels_launched_ = 0;

    /** Per-GPM queue of CTAs still to be placed on an SM. */
    std::vector<std::deque<const trace::Cta *>> gpm_queues_;
    /** Round-robin cursor per GPM for SM selection. */
    std::vector<std::uint32_t> gpm_sm_cursor_;
};

} // namespace hmg

#endif // HMG_GPU_CTA_SCHEDULER_HH
