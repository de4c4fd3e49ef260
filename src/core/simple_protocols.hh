/**
 * @file
 * The two bracketing configurations of the paper's evaluation:
 *
 *  - NoRemoteCacheModel: the normalization baseline of Figures 2 and 8
 *    ("a baseline which has no such caching"): data homed on a remote
 *    GPU is never cached by the requesting GPU at any level; data homed
 *    on the same GPU is cached under software-coherence rules.
 *
 *  - IdealModel: "idealized caching without coherence" — the loose
 *    upper bound. Lines are cached at every level, loads of any scope
 *    may hit anywhere, and acquire/release/kernel-boundary maintenance
 *    is free. The model is deliberately *incoherent*; memory-model
 *    conformance tests exempt it.
 */

#ifndef HMG_CORE_SIMPLE_PROTOCOLS_HH
#define HMG_CORE_SIMPLE_PROTOCOLS_HH

#include "core/sw_protocol.hh"

namespace hmg
{

/** Baseline: never cache remote-GPU data (non-hierarchical routing). */
class NoRemoteCacheModel : public SwProtocol
{
  public:
    explicit NoRemoteCacheModel(SystemContext &ctx)
        : SwProtocol(ctx, /*hierarchical=*/false, /*cache_remote=*/false)
    {
    }

    const char *name() const override { return "NoRemoteCache"; }
};

/** Idealized caching with zero coherence enforcement. */
class IdealModel : public SwProtocol
{
  public:
    explicit IdealModel(SystemContext &ctx)
        : SwProtocol(ctx, /*hierarchical=*/true, /*cache_remote=*/true)
    {
    }

    /** Loads of any scope may hit in any cache: the shared walk with
     *  the scope relaxed to none. */
    void load(const MemAccess &acc, LoadDoneCb done) override;

    /** No invalidation, no fence cost. */
    void acquire(const MemAccess &acc, DoneCb done) override;

    /** Releases complete immediately (no visibility guarantees). */
    void release(const MemAccess &acc, DoneCb done) override;

    /** Kernel boundaries keep every L2 warm (L1s, which are software
     *  managed in every configuration, still flush normally). */
    void kernelBoundary() override {}

    const char *name() const override { return "Ideal"; }
};

} // namespace hmg

#endif // HMG_CORE_SIMPLE_PROTOCOLS_HH
