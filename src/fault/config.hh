/**
 * @file
 * Configuration of the deterministic fault-injection layer (DESIGN.md
 * §11).
 *
 * Real NVLink/NVSwitch fabrics are not lossless: they survive on
 * CRC-check-and-replay at the link layer. The simulator models that
 * world with a seeded FaultPlan: per-link Bernoulli drop / corrupt /
 * extra-delay draws plus explicit link-flap (outage) windows, all driven
 * by the deterministic Rng so a given (plan, workload, topology) run is
 * bit-reproducible. The plan is plain data here; fault/plan.hh turns it
 * into per-link injector state and noc/port.cc consults it at the one
 * well-defined injection point (wire serialization).
 *
 * A default-constructed FaultConfig is inert: active() is false, no
 * injector objects are built, the transport dispatch path takes a single
 * never-taken null-pointer branch, and no fault.* statistics are
 * recorded — which is what keeps fault-free runs bit-identical to a
 * build without the layer (tests/fault_test.cc proves it).
 */

#ifndef HMG_FAULT_CONFIG_HH
#define HMG_FAULT_CONFIG_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace hmg
{

/**
 * One scheduled outage of an inter-GPU link direction: the link drops
 * every transmission in [downAt, upAt). `upAt == 0` means the link
 * never comes back — the hard-failure case the watchdog must convert
 * into a diagnostic instead of a hang.
 */
struct LinkFlap
{
    GpuId gpu = 0;      //!< which GPU's switch link
    bool egress = true; //!< GPU->switch direction (false: switch->GPU)
    Tick downAt = 0;    //!< first tick the link is dead
    Tick upAt = 0;      //!< first tick it works again; 0 = forever
};

/**
 * Upper bound on every fault timing knob (delayCycles, and the longest
 * backoff retryTimeout << backoffCap), about 14 simulated minutes at
 * 1.3 GHz. Arrival and retry ticks are `now` plus one of these, so the
 * cap keeps them far below the engine's schedule horizon (kTickMax
 * minus the wheel window) instead of letting the sum wrap.
 */
constexpr Tick kMaxFaultCycles = Tick{1} << 40;

/**
 * The full fault schedule. Probabilities are per *transmission attempt*
 * (a retried message is re-drawn each attempt, like a real wire);
 * dropProb + corruptProb + delayProb must not exceed 1. Drops and
 * corrupts are equivalent at this abstraction level — a corrupted flit
 * fails its CRC and is discarded by the receiver — but are counted
 * separately so a sweep can distinguish the injected causes.
 */
struct FaultConfig
{
    /** Seed for the per-link fault Rng streams (splitmix-spread per
     *  link, so adding a link never perturbs another link's draws). */
    std::uint64_t seed = 1;

    double dropProb = 0.0;    //!< P[transmission lost outright]
    double corruptProb = 0.0; //!< P[CRC failure at the receiver]
    double delayProb = 0.0;   //!< P[transient extra latency]
    Tick delayCycles = 200;   //!< extra latency added on a delay fault

    /** Scheduled outages (see LinkFlap). */
    std::vector<LinkFlap> flaps;

    /** Also inject on the intra-GPU crossbar ports. Off by default:
     *  on-package links are orders of magnitude more reliable than the
     *  switch fabric, and HMG's asymmetry story is about the latter. */
    bool intraGpu = false;

    // ---- link-level retry sublayer (NVLink-style CRC-replay) ----

    /** Base retransmission timeout in cycles; doubles per consecutive
     *  loss up to backoffCap (exponential backoff). */
    Tick retryTimeout = 64;
    /** Max backoff exponent: timeout caps at retryTimeout << backoffCap. */
    std::uint32_t backoffCap = 6;

    /** Any injection configured at all? Gates injector construction,
     *  fault.* stat emission and automatic watchdog arming. */
    bool
    active() const
    {
        return dropProb > 0.0 || corruptProb > 0.0 || delayProb > 0.0 ||
               !flaps.empty();
    }
};

} // namespace hmg

#endif // HMG_FAULT_CONFIG_HH
