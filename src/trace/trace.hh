/**
 * @file
 * The workload trace intermediate representation.
 *
 * The paper drives its simulator with program traces recording
 * "instructions, registers, memory addresses, and CUDA events"
 * (Section VI); compute is abstract, memory and synchronization are
 * explicit. Our IR mirrors that:
 *
 *   Trace = ordered Kernels (dependent: each starts after the previous
 *           completes, with an implicit system-scope release/acquire
 *           boundary);
 *   Kernel = a grid of CTAs, scheduled contiguously over GPMs;
 *   Cta    = a few Warps;
 *   Warp   = an in-order sequence of MemOps, each preceded by an
 *            abstract compute delay.
 *
 * One MemOp models one fully-coalesced warp-level memory transaction
 * (one 128 B line). Scoped acquire/release semantics ride on loads and
 * stores via flags, or stand alone as fences, matching PTX's
 * ld.acquire/st.release/fence instructions.
 */

#ifndef HMG_TRACE_TRACE_HH
#define HMG_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace hmg::trace
{

/**
 * One warp-level memory transaction or fence: 16 bytes, the address
 * first and the one-byte fields packed behind the delay, so a trace
 * costs no padding per op.
 */
struct MemOp
{
    Addr addr = 0;
    /** Abstract compute cycles separating this op from its predecessor. */
    std::uint32_t delay = 0;
    MemOpType type = MemOpType::Load;
    Scope scope = Scope::None;
    /** Load carries acquire semantics at `scope`. */
    bool acq = false;
    /** Store/atomic carries release semantics at `scope`. */
    bool rel = false;
};
static_assert(sizeof(MemOp) == 16, "no field of MemOp is padded");

/** An in-order instruction stream executed by one warp. */
struct Warp
{
    std::vector<MemOp> ops;

    // -- builder helpers used by the workload generators --
    Warp &
    ld(Addr a, std::uint32_t delay = 0, Scope s = Scope::None,
       bool acquire = false)
    {
        ops.push_back({a, delay, MemOpType::Load, s, acquire, false});
        return *this;
    }
    Warp &
    st(Addr a, std::uint32_t delay = 0, Scope s = Scope::None,
       bool release = false)
    {
        ops.push_back({a, delay, MemOpType::Store, s, false, release});
        return *this;
    }
    Warp &
    atom(Addr a, Scope s, std::uint32_t delay = 0, bool acquire = false,
         bool release = false)
    {
        ops.push_back({a, delay, MemOpType::Atomic, s, acquire, release});
        return *this;
    }
    Warp &
    acqFence(Scope s, std::uint32_t delay = 0)
    {
        ops.push_back({0, delay, MemOpType::AcqFence, s, true, false});
        return *this;
    }
    Warp &
    relFence(Scope s, std::uint32_t delay = 0)
    {
        ops.push_back({0, delay, MemOpType::RelFence, s, false, true});
        return *this;
    }
};

/** A cooperative thread array: warps co-resident on one SM. */
struct Cta
{
    std::vector<Warp> warps;
};

/** One kernel launch: a grid of CTAs. */
struct Kernel
{
    std::string name;
    std::vector<Cta> ctas;

    std::uint64_t
    memOps() const
    {
        std::uint64_t n = 0;
        for (const auto &cta : ctas)
            for (const auto &w : cta.warps)
                n += w.ops.size();
        return n;
    }
};

/** A whole application: a dependent sequence of kernels. */
struct Trace
{
    std::string name;
    std::vector<Kernel> kernels;

    std::uint64_t memOps() const;

    /** Distinct bytes touched (line granularity). */
    std::uint64_t footprintBytes(std::uint32_t line_bytes = 128) const;

    /** Total warp-level parallelism of the widest kernel. */
    std::uint64_t maxConcurrentWarps() const;
};

} // namespace hmg::trace

#endif // HMG_TRACE_TRACE_HH
