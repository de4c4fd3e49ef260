/**
 * @file
 * Per-layer replays: a workload's own trace addresses and message mix,
 * driven through one layer's public API with nothing else attached, so
 * the host cost of that layer is timed in isolation.
 *
 * The replays approximate what the full system asks of each layer
 * (contiguous CTA placement, first-touch homes, one request and one
 * response per remote access); they are host-time probes, not models,
 * and none of their numbers feeds a simulated statistic.
 */

#ifndef HOSTBENCH_REPLAY_HH
#define HOSTBENCH_REPLAY_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "trace/trace.hh"

namespace hostbench
{

/** One addressed trace op, placed on the machine. */
struct Access
{
    hmg::Addr line = 0;
    hmg::GpmId src = 0;  //!< GPM of the issuing CTA
    hmg::GpmId home = 0; //!< first-touch home GPM of the page
    hmg::MemOpType type = hmg::MemOpType::Load;
    std::uint32_t delay = 0;
};

/** A trace flattened into addressed accesses, warp by warp. */
struct FlatTrace
{
    std::vector<Access> accesses;
    /** accesses[warpBegin[w] .. warpBegin[w+1]) belong to warp w. */
    std::vector<std::uint32_t> warpBegin;
    /** accesses[kernelBegin[k] ..) start kernel k. */
    std::vector<std::uint32_t> kernelBegin;
};

FlatTrace flatten(const hmg::trace::Trace &t, const hmg::SystemConfig &cfg);

/** Work units replayed and host nanoseconds they took. */
struct ReplayResult
{
    std::uint64_t units = 0;
    std::int64_t ns = 0;
    std::uint64_t checksum = 0; //!< keeps the work observable

    double nsPerUnit() const { return units ? double(ns) / units : 0.0; }
};

/** Engine: every warp's ops as a chain of events spaced by op delays. */
ReplayResult replayEngine(const FlatTrace &f);
/** Network: a request (and its response) per remote access. */
ReplayResult replayNoc(const FlatTrace &f, const hmg::SystemConfig &cfg);
/** TagArray: every access looked up (and filled) in its GPM's L2 tags. */
ReplayResult replayCache(const FlatTrace &f, const hmg::SystemConfig &cfg);
/** Directory: remote reads add sharers at the home, writes clear them. */
ReplayResult replayDirectory(const FlatTrace &f,
                             const hmg::SystemConfig &cfg);
/** PageTable + MemoryState: first-touch placement and version store. */
ReplayResult replayMem(const FlatTrace &f, const hmg::SystemConfig &cfg);

} // namespace hostbench

#endif // HOSTBENCH_REPLAY_HH
