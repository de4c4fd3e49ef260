/**
 * @file
 * Fundamental types shared across the whole hmg library.
 *
 * Conventions:
 *  - all simulated time is in GPU core cycles (`Tick`, 1.3 GHz per the
 *    paper's Table II);
 *  - all addresses are byte addresses in the shared "global memory"
 *    virtual address space (`Addr`);
 *  - component identifiers are small integers with distinct typedefs so
 *    function signatures stay readable.
 */

#ifndef HMG_COMMON_TYPES_HH
#define HMG_COMMON_TYPES_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace hmg
{

/** Simulated time, in GPU core cycles. */
using Tick = std::uint64_t;

/** Byte address in the global memory address space. */
using Addr = std::uint64_t;

/** Monotonically increasing store version, used by the coherence oracle. */
using Version = std::uint64_t;

/** Flat GPM index across the whole system: gpu * gpmsPerGpu + gpm. */
using GpmId = std::uint32_t;

/** GPU index within the system. */
using GpuId = std::uint32_t;

/** Node (multi-GPU board / chassis) index within the system. */
using NodeId = std::uint32_t;

/** Flat SM index across the whole system. */
using SmId = std::uint32_t;

/** Sentinel for "no GPM" / "no owner". */
constexpr GpmId kInvalidGpm = ~GpmId{0};

/** Largest tick; used as "never". */
constexpr Tick kTickMax = ~Tick{0};

/**
 * Bytes of one host cache line. State that one LP thread writes during
 * a window is aligned to it, so no host line is written by two LPs.
 */
constexpr std::size_t kHostLineBytes = 64;

/**
 * Synchronization scope, mirroring the PTX scopes the paper targets
 * (Section II-C). Ordering is significant: wider scopes compare greater.
 */
enum class Scope : std::uint8_t
{
    None = 0,   //!< non-synchronizing access
    Cta  = 1,   //!< .cta — threads sharing an SM's L1
    Gpu  = 2,   //!< .gpu — all SMs of one GPU
    Sys  = 3,   //!< .sys — the whole system
};

/** Scopes are ordered by width: None < Cta < Gpu < Sys. */
constexpr bool
operator<(Scope a, Scope b)
{
    return static_cast<std::uint8_t>(a) < static_cast<std::uint8_t>(b);
}
constexpr bool operator>(Scope a, Scope b) { return b < a; }
constexpr bool operator<=(Scope a, Scope b) { return !(b < a); }
constexpr bool operator>=(Scope a, Scope b) { return !(a < b); }

/** Kind of a memory operation carried by a trace. */
enum class MemOpType : std::uint8_t
{
    Load,       //!< read, optionally an acquire at `scope`
    Store,      //!< write, optionally a release at `scope`
    Atomic,     //!< read-modify-write performed at the scope home node
    AcqFence,   //!< standalone acquire fence
    RelFence,   //!< standalone release fence
};

/** Human-readable names, mostly for stats and debug output. */
const char *toString(Scope s);
const char *toString(MemOpType t);

/**
 * The coherence protocol / caching policy under evaluation. These are the
 * six configurations compared throughout the paper's evaluation
 * (Figures 2 and 8).
 */
enum class Protocol : std::uint8_t
{
    NoRemoteCache,  //!< baseline: never cache data homed on a remote GPU
    SwNonHier,      //!< non-hierarchical software coherence
    SwHier,         //!< hierarchical software coherence
    Nhcc,           //!< non-hierarchical hardware coherence (Section IV)
    Hmg,            //!< hierarchical hardware coherence (Section V)
    Ideal,          //!< idealized caching without coherence enforcement
};

const char *toString(Protocol p);

/** True for the two hardware directory protocols. */
constexpr bool
isHardwareProtocol(Protocol p)
{
    return p == Protocol::Nhcc || p == Protocol::Hmg;
}

/** True for protocols that route/cache through a GPU home node. */
constexpr bool
isHierarchicalProtocol(Protocol p)
{
    return p == Protocol::SwHier || p == Protocol::Hmg;
}

} // namespace hmg

#endif // HMG_COMMON_TYPES_HH
