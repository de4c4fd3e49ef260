#include "common/config.hh"

#include <sstream>
#include <utility>

#include "common/fabric.hh"
#include "common/intmath.hh"
#include "common/log.hh"

namespace hmg
{

const char *
toString(Scope s)
{
    switch (s) {
      case Scope::None: return "none";
      case Scope::Cta:  return "cta";
      case Scope::Gpu:  return "gpu";
      case Scope::Sys:  return "sys";
    }
    return "?";
}

const char *
toString(MemOpType t)
{
    switch (t) {
      case MemOpType::Load:     return "ld";
      case MemOpType::Store:    return "st";
      case MemOpType::Atomic:   return "atom";
      case MemOpType::AcqFence: return "fence.acq";
      case MemOpType::RelFence: return "fence.rel";
    }
    return "?";
}

const char *
toString(Protocol p)
{
    switch (p) {
      case Protocol::NoRemoteCache: return "NoRemoteCache";
      case Protocol::SwNonHier:     return "SW-NonHier";
      case Protocol::SwHier:        return "SW-Hier";
      case Protocol::Nhcc:          return "NHCC";
      case Protocol::Hmg:           return "HMG";
      case Protocol::Ideal:         return "Ideal";
    }
    return "?";
}

const char *
toString(PagePlacement p)
{
    switch (p) {
      case PagePlacement::FirstTouch: return "first-touch";
      case PagePlacement::RoundRobin: return "round-robin";
      case PagePlacement::LocalOnly:  return "local-only";
    }
    return "?";
}

void
SystemConfig::validate() const
{
    if (numNodes == 0 || numGpus == 0 || gpmsPerGpu == 0 ||
        smsPerGpu == 0)
        hmg_fatal("topology dimensions must be non-zero");
    if (numGpus % numNodes != 0)
        hmg_fatal("numGpus (%u) must be divisible by numNodes (%u); "
                  "%u GPUs would leave %u stranded",
                  numGpus, numNodes, numGpus, numGpus % numNodes);
    if (smsPerGpu % gpmsPerGpu != 0)
        hmg_fatal("smsPerGpu (%u) must be divisible by gpmsPerGpu (%u); "
                  "smsPerGpm() would silently truncate %u SMs",
                  smsPerGpu, gpmsPerGpu, smsPerGpu % gpmsPerGpu);
    // Sharer vectors are 32-bit masks per tier (core/directory.hh);
    // each tier's population must fit its mask. NHCC tracks every GPM
    // of the machine in one flat mask, so it stops scaling first — the
    // scale-out benches quantify exactly that.
    if (gpmsPerGpu > 32)
        hmg_fatal("gpmsPerGpu (%u) exceeds the 32-bit GPM sharer mask",
                  gpmsPerGpu);
    if (gpusPerNode() > 32)
        hmg_fatal("gpusPerNode (%u) exceeds the 32-bit GPU sharer mask; "
                  "add nodes (numNodes) to scale further",
                  gpusPerNode());
    if (numNodes > 32)
        hmg_fatal("numNodes (%u) exceeds the 32-bit node sharer mask",
                  numNodes);
    if (protocol == Protocol::Nhcc && totalGpms() > 32)
        hmg_fatal("NHCC's flat sharer mask tracks at most 32 GPMs "
                  "(%u GPUs x %u GPMs = %u); use a hierarchical "
                  "protocol at this scale",
                  numGpus, gpmsPerGpu, totalGpms());
    if (numNodes > 1 && gpusPerNode() < 1)
        hmg_fatal("each node needs at least one GPU");
    if (!isPowerOf2(cacheLineBytes))
        hmg_fatal("cacheLineBytes must be a power of two");
    if (!isPowerOf2(osPageBytes) || osPageBytes < cacheLineBytes)
        hmg_fatal("osPageBytes must be a power of two >= a cache line");
    // Zero here would divide by zero in the geometry checks below and
    // in the tag arrays' and directory's set index, so reject it first.
    const std::pair<const char *, std::uint64_t> geometry[] = {
        {"l1Bytes", l1Bytes},
        {"l1Ways", l1Ways},
        {"l2BytesPerGpu", l2BytesPerGpu},
        {"l2Ways", l2Ways},
        {"dirEntriesPerGpm", dirEntriesPerGpm},
        {"dirWays", dirWays},
    };
    for (const auto &[name, value] : geometry)
        if (value == 0)
            hmg_fatal("%s must be non-zero", name);
    if (l1Bytes % (cacheLineBytes * l1Ways) != 0)
        hmg_fatal("L1 geometry does not divide into sets");
    if (l2BytesPerGpu % gpmsPerGpu != 0)
        hmg_fatal("l2BytesPerGpu (%llu) must divide across %u GPMs; "
                  "l2BytesPerGpm() would silently drop %llu bytes",
                  static_cast<unsigned long long>(l2BytesPerGpu),
                  gpmsPerGpu,
                  static_cast<unsigned long long>(l2BytesPerGpu %
                                                  gpmsPerGpu));
    if (l2BytesPerGpm() % (std::uint64_t{cacheLineBytes} * l2Ways) != 0)
        hmg_fatal("L2 geometry does not divide into sets");
    if (!isPowerOf2(dirLinesPerEntry))
        hmg_fatal("dirLinesPerEntry must be a power of two");
    // A directory entry's sector size is a 32-bit byte count.
    if (std::uint64_t{dirLinesPerEntry} * cacheLineBytes > UINT32_MAX)
        hmg_fatal("dirLinesPerEntry (%u) x cacheLineBytes (%u) must fit "
                  "a 32-bit sector size",
                  dirLinesPerEntry, cacheLineBytes);
    if (dirEntriesPerGpm % dirWays != 0)
        hmg_fatal("directory geometry does not divide into sets");
    // The bounds keep the fabric's pool arithmetic and the serializers'
    // fixed-point rates exact (see kMaxRateGBps).
    const std::pair<const char *, double> rates[] = {
        {"interGpmGBpsPerGpu", interGpmGBpsPerGpu},
        {"interGpuGBpsPerLink", interGpuGBpsPerLink},
        {"interNodeGBpsPerLink", interNodeGBpsPerLink},
        {"dramGBpsPerGpu", dramGBpsPerGpu},
    };
    for (const auto &[name, value] : rates)
        if (!(value >= kMinRateGBps && value <= kMaxRateGBps))
            hmg_fatal("%s (%g GB/s) must be in [%g, %g]", name, value,
                      kMinRateGBps, kMaxRateGBps);
    if (!(gpuFrequencyGhz >= kMinGpuFrequencyGhz &&
          gpuFrequencyGhz <= kMaxGpuFrequencyGhz))
        hmg_fatal("gpuFrequencyGhz (%g) must be in [%g, %g]",
                  gpuFrequencyGhz, kMinGpuFrequencyGhz, kMaxGpuFrequencyGhz);
    const std::pair<const char *, Tick> hops[] = {
        {"intraGpuHopLatency", intraGpuHopLatency},
        {"interGpuHopLatency", interGpuHopLatency},
        {"interNodeHopLatency", interNodeHopLatency},
    };
    for (const auto &[name, value] : hops)
        if (value > kMaxHopLatency)
            hmg_fatal("%s (%llu) must be <= %llu cycles", name,
                      static_cast<unsigned long long>(value),
                      static_cast<unsigned long long>(kMaxHopLatency));
    if (numNodes > 1 && interNodeHopLatency < 2)
        hmg_fatal("interNodeHopLatency (%llu) must be >= 2 cycles so "
                  "node-tier LP cuts retain positive lookahead",
                  static_cast<unsigned long long>(interNodeHopLatency));
    if (smMaxOutstanding == 0 || smIssueWidth == 0)
        hmg_fatal("SM issue parameters must be non-zero");
    if (nocPortQueueCapacity == 0 || nocInjectionBacklogLimit == 0)
        hmg_fatal("transport queue parameters must be non-zero");
    if (l2WriteBack && !isHardwareProtocol(protocol))
        hmg_fatal("write-back L2s require a hardware coherence protocol");
    // A knob the chosen model never reads would run identically to the
    // same config without it, so it is refused rather than ignored.
    if (sharerDowngrade && !isHardwareProtocol(protocol))
        hmg_fatal("sharerDowngrade requires a hardware coherence protocol "
                  "(NHCC or HMG), not %s",
                  hmg::toString(protocol));
    if (sharerDowngrade && dirLinesPerEntry != 1)
        hmg_fatal("sharerDowngrade requires dirLinesPerEntry == 1 (got "
                  "%u): with coarser entries a downgrade could prune a "
                  "sharer that still caches a sibling line",
                  dirLinesPerEntry);
    if (hierarchicalReleaseFanout && protocol != Protocol::Hmg)
        hmg_fatal("hierarchicalReleaseFanout requires the HMG protocol, "
                  "not %s: no other protocol relays release markers",
                  hmg::toString(protocol));
    if (lpDeterministic && lpJobs <= 1)
        hmg_fatal("lpDeterministic requires lpJobs > 1 (got %u): a serial "
                  "run has no LP merge to make deterministic",
                  lpJobs);
    // LpPlan::build clamps the LP count to the fabric's cut units, so a
    // machine with one of them runs serially whatever lpJobs says.
    if (lpDeterministic) {
        const Fabric fabric(*this);
        const FabricTier &cut = fabric.tier(fabric.cutTier());
        if (cut.units <= 1)
            hmg_fatal("lpDeterministic requires more than one LP, but "
                      "lpJobs (%u) is clamped to the machine's %u cut "
                      "unit (%s tier): a serial run has no LP merge to "
                      "make deterministic",
                      lpJobs, cut.units, cut.unit);
    }
    if (fault.dropProb < 0 || fault.corruptProb < 0 ||
        fault.delayProb < 0)
        hmg_fatal("fault probabilities must be non-negative");
    if (fault.dropProb + fault.corruptProb + fault.delayProb > 1.0)
        hmg_fatal("fault probabilities must sum to <= 1 (got %g)",
                  fault.dropProb + fault.corruptProb + fault.delayProb);
    if (fault.delayProb > 0 && fault.delayCycles == 0)
        hmg_fatal("fault delayCycles must be non-zero with delayProb > 0");
    if (fault.active() && fault.retryTimeout == 0)
        hmg_fatal("fault retryTimeout must be non-zero");
    if (fault.backoffCap > 32)
        hmg_fatal("fault backoffCap must be <= 32 (got %u)",
                  fault.backoffCap);
    // A delay or backoff is added to `now`; past the cap the sum could
    // wrap (and the per-link arrival clamp would hide it).
    if (fault.delayCycles > kMaxFaultCycles)
        hmg_fatal("fault delayCycles (%llu) must be <= %llu",
                  static_cast<unsigned long long>(fault.delayCycles),
                  static_cast<unsigned long long>(kMaxFaultCycles));
    if (fault.retryTimeout > kMaxFaultCycles >> fault.backoffCap)
        hmg_fatal("fault retryTimeout (%llu) << backoffCap (%u) must be "
                  "<= %llu",
                  static_cast<unsigned long long>(fault.retryTimeout),
                  fault.backoffCap,
                  static_cast<unsigned long long>(kMaxFaultCycles));
    for (const auto &f : fault.flaps) {
        if (f.gpu >= numGpus)
            hmg_fatal("fault flap names GPU %u of %u", f.gpu, numGpus);
        if (f.upAt != 0 && f.upAt <= f.downAt)
            hmg_fatal("fault flap window [%llu, %llu) is empty",
                      static_cast<unsigned long long>(f.downAt),
                      static_cast<unsigned long long>(f.upAt));
    }
}

std::string
SystemConfig::toString() const
{
    std::ostringstream os;
    if (numNodes > 1)
        os << "Number of nodes             " << numNodes << " ("
           << gpusPerNode() << " GPUs each)\n";
    os << "Number of GPUs              " << numGpus << "\n"
       << "Number of SMs               " << smsPerGpu << " per GPU, "
       << totalSms() << " in total\n"
       << "Number of GPMs              " << gpmsPerGpu << " per GPU\n"
       << "GPU frequency               " << gpuFrequencyGhz << "GHz\n"
       << "Max number of warps         " << maxWarpsPerSm << " per SM\n"
       << "OS Page Size                " << (osPageBytes >> 20) << "MB\n"
       << "L1 data cache               " << (l1Bytes >> 10)
       << "KB per SM, " << cacheLineBytes << "B lines\n"
       << "L2 data cache               " << (l2BytesPerGpu >> 20)
       << "MB per GPU, " << cacheLineBytes << "B lines, " << l2Ways
       << " ways\n"
       << "L2 coherence directory      " << (dirEntriesPerGpm >> 10)
       << "K entries per GPU module, each entry covers "
       << dirLinesPerEntry << " cache lines\n"
       << "Inter-GPM bandwidth         " << interGpmGBpsPerGpu / 1000.0
       << "TB/s per GPU, bi-directional\n"
       << "Inter-GPU bandwidth         " << interGpuGBpsPerLink
       << "GB/s per link, bi-directional\n";
    if (numNodes > 1)
        os << "Inter-node bandwidth        " << interNodeGBpsPerLink
           << "GB/s per uplink, bi-directional\n";
    os << "NoC port queue floor        " << nocPortQueueCapacity
       << " max-size messages per input (grown to 2x link BDP)\n"
       << "NoC injection backlog cap   " << nocInjectionBacklogLimit
       << " messages per GPM NIC\n"
       << "Total DRAM bandwidth        " << dramGBpsPerGpu / 1000.0
       << "TB/s per GPU\n"
       << "Total DRAM capacity         " << (dramBytesPerGpu >> 30)
       << "GB per GPU\n"
       << "Protocol                    " << hmg::toString(protocol) << "\n"
       << "Page placement              " << hmg::toString(pagePlacement)
       << "\n";
    return os.str();
}

} // namespace hmg
