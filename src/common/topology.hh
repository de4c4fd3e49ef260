/**
 * @file
 * Declarative machine topology: the geometry knobs of SystemConfig as a
 * first-class, validated object with a JSON file format behind it.
 *
 * A Topology names the three tiers of the machine —
 *
 *     N nodes x M GPUs-per-node x K GPMs-per-GPU
 *
 * — plus the per-tier link bandwidth/latency of the switch fabrics
 * joining them and the per-tier memory capacities. `hmgsim --topology
 * file.json` (and any test or bench) loads one, applies it onto a
 * SystemConfig, and every downstream layer — the NoC port graph and its
 * credit pools, the home-hierarchy routing, the LP partitioner's cut
 * tiers, hmgcheck's channel-dependency graph — derives its shape from
 * the config, never from baked-in constants.
 *
 * The default-constructed Topology reproduces the paper's Table II
 * machine exactly (1 node x 4 GPUs x 4 GPMs); the differential tests
 * prove that applying it yields bit-identical statistics to an
 * untouched SystemConfig.
 *
 * The parser is deliberately strict, in the tradition of the CLI's
 * numeric parsers: unknown keys, malformed JSON, zero-sized tiers,
 * non-integral counts and out-of-range rates are all one-line fatal
 * rejections naming the offending line — never a silently defaulted
 * field.
 */

#ifndef HMG_COMMON_TOPOLOGY_HH
#define HMG_COMMON_TOPOLOGY_HH

#include <cstdint>
#include <string>

#include "common/config.hh"
#include "common/types.hh"

namespace hmg
{

/** The declarative machine-shape model (JSON file + CLI spec). */
struct Topology
{
    // ---- tiers (Table II defaults; nodes extends beyond the paper) ----
    std::uint32_t nodes = 1;
    std::uint32_t gpusPerNode = 4;
    std::uint32_t gpmsPerGpu = 4;
    std::uint32_t smsPerGpu = 128;

    // ---- per-tier link fabric ----
    double intraGpuGBps = 2000.0;   //!< GPM crossbar, aggregate per GPU
    double interGpuGBps = 200.0;    //!< per GPU switch link
    double interNodeGBps = 100.0;   //!< per node uplink
    Tick intraGpuHopLatency = 30;
    Tick interGpuHopLatency = 600;
    Tick interNodeHopLatency = 1200;

    // ---- per-tier memory ----
    std::uint64_t l2MBPerGpu = 12;
    std::uint32_t dirEntriesPerGpm = 12 * 1024;
    double dramGBpsPerGpu = 1000.0;

    std::uint32_t totalGpus() const { return nodes * gpusPerNode; }
    std::uint32_t totalGpms() const { return totalGpus() * gpmsPerGpu; }

    /**
     * Copy this shape onto `cfg` (topology fields only; protocol,
     * policy and fault knobs are untouched) and cfg.validate() the
     * result, so an impossible shape dies here with a clear message.
     */
    void applyTo(SystemConfig &cfg) const;

    /** The shape `cfg` currently describes (round-trip helper). */
    static Topology fromConfig(const SystemConfig &cfg);

    /**
     * Parse a topology spec from JSON text. `origin` names the source
     * (file name or "<inline>") in diagnostics. Fatal on any syntax
     * error, unknown key, wrong type or out-of-range value.
     */
    static Topology parseJson(const std::string &text,
                              const std::string &origin);

    /** Load and parse a topology file; fatal if unreadable. */
    static Topology loadFile(const std::string &path);

    /** Serialize to the canonical JSON format (examples/, tests). */
    std::string toJson() const;
};

} // namespace hmg

#endif // HMG_COMMON_TOPOLOGY_HH
