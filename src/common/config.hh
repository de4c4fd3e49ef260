/**
 * @file
 * System configuration for the simulated hierarchical multi-GPU machine.
 *
 * Default values reproduce Table II of the paper: a 4-GPU system, 4 GPMs
 * per GPU, 128 SMs per GPU, 12 MB of L2 per GPU, 12K coherence-directory
 * entries per GPM with 4 cache lines tracked per entry, 2 TB/s of
 * intra-GPU bandwidth, 200 GB/s inter-GPU links and 1 TB/s of DRAM
 * bandwidth per GPU.
 *
 * Latency parameters are not given in the paper; the defaults are
 * documented engineering estimates for a Volta-class part, and no bench
 * varies them. A topology file can set the three hop latencies; the
 * rest are set only through SystemConfig.
 */

#ifndef HMG_COMMON_CONFIG_HH
#define HMG_COMMON_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "fault/config.hh"

namespace hmg
{

/** NUMA page-placement policy (Section II-A / VI). */
enum class PagePlacement : std::uint8_t
{
    FirstTouch,   //!< page homed on the GPM of the first CTA touching it
    RoundRobin,   //!< pages interleaved across all GPMs
};

const char *toString(PagePlacement p);

/**
 * Bounds validate() puts on every link and DRAM rate, the core clock and
 * the hop latencies; they are far outside any machine worth simulating.
 * A rate becomes bytes per cycle, which the fabric multiplies by a feed
 * latency (at most twice kMaxHopLatency) into a 64-bit credit pool
 * (common/fabric.cc): at most 1e9 GB/s over at least 0.5 GHz keeps that
 * product below 2^63. The floor keeps every port's bytes per cycle above
 * the serializers' 2^-20 resolution (sim/serializer.hh), even split over
 * 32 GPMs at 10 GHz. hmgsim's --inter-bw takes the same ceiling.
 */
constexpr double kMaxRateGBps = 1e9;
constexpr double kMinRateGBps = 1e-3;
constexpr double kMinGpuFrequencyGhz = 0.5;
constexpr double kMaxGpuFrequencyGhz = 10.0;
constexpr Tick kMaxHopLatency = Tick{1} << 30;

/**
 * All tunables of the simulated machine. Plain aggregate so tests and
 * benches can tweak fields directly; call validate() after editing.
 */
struct SystemConfig
{
    // ---- topology (Table II; numNodes extends it beyond the paper) ----
    /**
     * Multi-GPU nodes (boards/chassis) joined by an inter-node switch
     * tier. 1 (the default, and the paper's whole evaluation) keeps the
     * classic two-level machine: no node switches are built, no node
     * directory role exists, and every result is bit-identical to the
     * pre-topology simulator. `numGpus` stays the TOTAL GPU count and
     * must be divisible by `numNodes`.
     */
    std::uint32_t numNodes = 1;
    std::uint32_t numGpus = 4;
    std::uint32_t gpmsPerGpu = 4;
    std::uint32_t smsPerGpu = 128;
    std::uint32_t maxWarpsPerSm = 64;

    // ---- clock ----
    double gpuFrequencyGhz = 1.3;

    // ---- memory geometry (Table II) ----
    std::uint32_t cacheLineBytes = 128;
    std::uint64_t osPageBytes = 2ull * 1024 * 1024;
    std::uint64_t dramBytesPerGpu = 32ull * 1024 * 1024 * 1024;

    // ---- L1 (per SM, software managed, write-through) ----
    std::uint32_t l1Bytes = 128 * 1024;
    std::uint32_t l1Ways = 8;
    Tick l1HitLatency = 28;

    // ---- L2 (per GPM; 12 MB per GPU => 3 MB per GPM) ----
    std::uint64_t l2BytesPerGpu = 12ull * 1024 * 1024;
    std::uint32_t l2Ways = 16;
    Tick l2HitLatency = 120;
    /** Tag-check cost charged to misses (hits pay l2HitLatency). */
    Tick l2TagLatency = 40;

    // ---- coherence directory (per GPM) ----
    std::uint32_t dirEntriesPerGpm = 12 * 1024;
    std::uint32_t dirWays = 8;
    std::uint32_t dirLinesPerEntry = 4;   //!< coarse-grain tracking

    // ---- interconnect bandwidth (Table II), GB/s ----
    double interGpmGBpsPerGpu = 2000.0;  //!< aggregate per GPU, bidir
    double interGpuGBpsPerLink = 200.0;  //!< per GPU link, bidir
    double interNodeGBpsPerLink = 100.0; //!< per node uplink, bidir
    double dramGBpsPerGpu = 1000.0;

    // ---- transport-layer queueing (noc/port.hh) ----
    /**
     * Floor of a port input queue's credit pool, in max-size-message
     * slots. The fabric grows each pool to >= 2x the feeding link's
     * bandwidth-delay product so credit-return latency never idles a
     * wire (common/fabric.hh); this floor only binds on short hops.
     */
    std::uint32_t nocPortQueueCapacity = 8;
    /**
     * NIC backlog (messages parked awaiting egress credit) above which
     * Network::whenInjectable() makes SM store issue wait. The NIC queue
     * itself is unbounded so protocol traffic can never deadlock.
     */
    std::uint32_t nocInjectionBacklogLimit = 32;

    // ---- fixed latencies (estimates; hops settable by topology) ----
    Tick intraGpuHopLatency = 30;    //!< GPM <-> crossbar <-> GPM
    Tick interGpuHopLatency = 600;   //!< GPU <-> switch <-> GPU one-way
    Tick interNodeHopLatency = 1200; //!< GPU <-> node switches <-> GPU
    Tick dramLatency = 350;

    // ---- message sizing ----
    std::uint32_t ctrlMsgBytes = 16;   //!< requests, invs, acks
    std::uint32_t msgHeaderBytes = 16; //!< added to data-bearing messages

    // ---- SM issue model ----
    /** Max in-flight memory requests per SM (latency-hiding budget). */
    std::uint32_t smMaxOutstanding = 64;
    /** Ops issued per SM per cycle when a warp is ready. */
    std::uint32_t smIssueWidth = 2;
    /**
     * Non-blocking loads in flight per warp before it stalls (GPUs
     * issue batches of loads before the first use). Acquire-loads,
     * atomics and fences always drain the warp first.
     */
    std::uint32_t warpMaxInflightLoads = 24;
    /** Cycles a warp is blocked retiring a posted (non-blocking) store. */
    Tick storeIssueCost = 4;
    /** Pipeline drain + launch cost between dependent kernels. */
    Tick kernelLaunchLatency = 2500;

    // ---- policy under evaluation ----
    Protocol protocol = Protocol::Hmg;
    PagePlacement pagePlacement = PagePlacement::FirstTouch;

    /**
     * When true, clean L2 evictions notify the home so the sharer entry
     * can be pruned (the optional "downgrade" message of Section IV-B).
     * The paper's evaluation leaves this off; we expose it for ablation.
     * Requires NHCC or HMG and dirLinesPerEntry == 1 (validate()).
     */
    bool sharerDowngrade = false;

    /**
     * When true, HMG system-scope release markers fan out hierarchically
     * (one marker per remote GPU, relayed to its GPMs) instead of
     * point-to-point, cutting the inter-GPU control messages per release
     * from 3*(N-1)*M/4... to N-1 per round. A bandwidth optimization in
     * the spirit of Section V's hierarchy; off by default to match the
     * protocol as described. HMG only (validate()).
     */
    bool hierarchicalReleaseFanout = false;

    /**
     * Write-back L2 mode (Section IV-B's design alternative): stores of
     * scope <= .cta mark lines dirty in the local L2 instead of writing
     * through; releases, kernel boundaries and capacity evictions flush
     * dirty data to the home (evictions use the paper's
     * update-without-tracking message). Synchronizing stores still
     * write through for forward progress. Hardware protocols only; the
     * paper's evaluation (and ours) defaults to write-through.
     */
    bool l2WriteBack = false;

    /**
     * When true, the selected coherence model is wrapped in the
     * CoherenceChecker decorator (`--check`): every load, store, atomic
     * and synchronization operation is verified against the version
     * oracle and the directory-coverage invariants of core/checker.hh.
     * Verification only — protocol behavior and timing are unchanged.
     */
    bool checkCoherence = false;

    // ---- fault injection & hang detection (DESIGN.md §11) ----
    /**
     * Deterministic fault schedule (`--fault-*`): per-link drop /
     * corrupt / delay probabilities and link-flap windows, absorbed by
     * the NVLink-style retry sublayer in noc/port.cc. Inert by default;
     * see fault/config.hh.
     */
    FaultConfig fault;
    /**
     * No-progress window (cycles) after which the engine watchdog
     * aborts the run with a structured diagnostic instead of hanging
     * (`--watchdog N`). 0 = auto: armed with a generous default
     * whenever fault injection is active, fully off otherwise (so
     * fault-free runs stay bit-identical and watchdog-free).
     */
    Tick watchdogCycles = 0;

    // ---- parallel (PDES) execution of one simulation ----
    /**
     * Logical processes (`--lp-jobs N`): the simulation is partitioned
     * into up to N LPs at the fabric's cut tier (GPUs single-node,
     * nodes multi-node), each with its own event wheel, synchronized
     * conservatively at the cut tier's links (whose egress latency is
     * the lookahead; sim/lp.hh). 1 = the classic serial engine. Clamped
     * to the cut unit count.
     */
    std::uint32_t lpJobs = 1;
    /**
     * With lpJobs > 1 (`--deterministic`): run the per-LP wheels
     * single-threaded under a (tick, insertion-order) merge that is
     * bit-identical to the serial engine — the differential-testing
     * mode. Off: threaded time windows (delay-only relaxations).
     * validate() refuses it with lpJobs <= 1.
     */
    bool lpDeterministic = false;

    // ---- derived helpers ----
    std::uint32_t totalGpms() const { return numGpus * gpmsPerGpu; }
    std::uint32_t totalSms() const { return numGpus * smsPerGpu; }
    std::uint32_t smsPerGpm() const { return smsPerGpu / gpmsPerGpu; }
    std::uint64_t l2BytesPerGpm() const { return l2BytesPerGpu / gpmsPerGpu; }
    std::uint64_t dirCoverageBytesPerGpm() const
    {
        return std::uint64_t{dirEntriesPerGpm} * dirLinesPerEntry *
               cacheLineBytes;
    }

    /** Convert a GB/s figure into bytes per GPU core cycle. */
    double bytesPerCycle(double gbps) const
    {
        return gbps * 1e9 / (gpuFrequencyGhz * 1e9);
    }

    /** Bytes/cycle of one GPM's port into the intra-GPU crossbar. */
    double intraGpuPortBytesPerCycle() const
    {
        return bytesPerCycle(interGpmGBpsPerGpu / gpmsPerGpu / 2.0);
    }

    /** Bytes/cycle of one GPU's port into the inter-GPU switch (per dir). */
    double interGpuPortBytesPerCycle() const
    {
        return bytesPerCycle(interGpuGBpsPerLink);
    }

    /** Bytes/cycle of one node's uplink into the inter-node switch. */
    double interNodePortBytesPerCycle() const
    {
        return bytesPerCycle(interNodeGBpsPerLink);
    }

    /** Bytes/cycle of one GPM's DRAM channel. */
    double dramPortBytesPerCycle() const
    {
        return bytesPerCycle(dramGBpsPerGpu / gpmsPerGpu);
    }

    /** GPM -> GPU containing it. Round-trips with gpmId(): validate()
     *  rejects shapes whose division here would silently truncate. */
    GpuId gpuOf(GpmId gpm) const { return gpm / gpmsPerGpu; }
    /** GPM -> index within its GPU. */
    std::uint32_t localGpmOf(GpmId gpm) const { return gpm % gpmsPerGpu; }
    /** (gpu, local gpm) -> flat GPM id. */
    GpmId gpmId(GpuId gpu, std::uint32_t local) const
    {
        return gpu * gpmsPerGpu + local;
    }
    /** SM -> flat GPM id (SMs are striped contiguously over GPMs). */
    GpmId gpmOfSm(SmId sm) const
    {
        GpuId gpu = sm / smsPerGpu;
        std::uint32_t local_sm = sm % smsPerGpu;
        return gpmId(gpu, local_sm / smsPerGpm());
    }

    // ---- node-tier geometry ----
    std::uint32_t gpusPerNode() const { return numGpus / numNodes; }
    /** GPU -> node containing it (GPUs are striped over nodes). */
    NodeId nodeOf(GpuId gpu) const { return gpu / gpusPerNode(); }
    /** GPU -> index within its node (sharer-mask index). */
    std::uint32_t localGpuOf(GpuId gpu) const
    {
        return gpu % gpusPerNode();
    }
    /** (node, local gpu) -> flat GPU id. */
    GpuId gpuId(NodeId node, std::uint32_t local) const
    {
        return node * gpusPerNode() + local;
    }
    NodeId nodeOfGpm(GpmId gpm) const { return nodeOf(gpuOf(gpm)); }

    /** Directory sharer-vector width per entry: with the node tier the
     *  sys home tracks M-1 GPM bits + (N/K - 1) local-GPU bits + K-1
     *  node bits (K = 1 reduces to the paper's M + N - 2). */
    std::uint32_t dirSharerBits() const
    {
        return (gpmsPerGpu - 1) + (gpusPerNode() - 1) + (numNodes - 1);
    }

    /** Abort with hmg_fatal() if the configuration is inconsistent. */
    void validate() const;

    /** Multi-line human-readable dump (bench_table2_config). */
    std::string toString() const;
};

} // namespace hmg

#endif // HMG_COMMON_CONFIG_HH
