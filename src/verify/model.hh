/**
 * @file
 * Exhaustive (Murphi-style) model checker for the NHCC / HMG directory
 * protocols, driven by the declarative transition table of spec.hh.
 *
 * The model is a small, finite abstraction of the machine the timing
 * simulator builds: 2 GPUs x 2 GPMs (or 2 nodes x 2 GPUs x 2 GPMs with
 * numNodes = 2), 1-3 cache lines, one logical
 * thread per GPM, per-(src,dst) FIFO message channels, and directory
 * entries stepped through verify::applyDirEvent — i.e. through exactly
 * the rows core/hw_protocol.cc executes. Breadth-first exploration of
 * every interleaving of thread steps and message deliveries visits the
 * full reachable state space and checks, in every state:
 *
 *   2. sharer-tracking soundness — every cached copy outside the system
 *      home is reachable from home directory state (hierarchically
 *      under HMG), modulo copies whose invalidation or write-through is
 *      still in flight;
 *   3. scoped-RC safety — litmus programs (MP / SB / WRC, with .sys and
 *      .gpu scope variants) never reach a forbidden outcome;
 *   4. deadlock freedom — every non-final state has a successor, and no
 *      bounded channel overflows.
 *
 * (Invariant family 1 is not explored: no acks and no transient states
 * hold by the row type (spec.hh), and determinism, completeness and an
 * acyclic message-class graph are proven statically by the lint
 * families, src/verify/lint/, which hmgcheck runs before this
 * exploration stage.)
 *
 * Deliberate abstractions, chosen to keep the state space finite while
 * preserving the protocol decisions under test:
 *
 *  - Data values are write versions (0 = initial); the system home's L2
 *    and DRAM are merged into one authoritative copy per line.
 *  - MSHR request merging is omitted: one outstanding load per thread.
 *    Merging dedups traffic but adds no new directory transitions.
 *  - L2 capacity evictions of *data* are not modeled (caches fit both
 *    lines); *directory* capacity is modeled (dirEntriesPerNode) so
 *    replacement fans (DirEvent::Replace) are explored.
 *  - Release marker rounds are abstracted to their fixpoint
 *    postcondition: a release fires atomically once the thread's
 *    write-throughs have reached the required level and no relevant
 *    invalidation is in flight (system-wide for .sys — what HMG's two
 *    marker rounds establish, Section V-C; own-GPU sources for .gpu).
 *    The message-level marker machinery itself is exercised by the
 *    litmus tests running under `--check` in the timing simulator.
 *  - Acquires are thread-local (L1 invalidation only; no L1 here).
 */

#ifndef HMG_VERIFY_MODEL_HH
#define HMG_VERIFY_MODEL_HH

#include <cstdint>

#include "verify/search.hh"

namespace hmg::verify
{

/** Which program the model threads run. */
enum class Workload : std::uint8_t
{
    Free,   //!< bounded free exploration (loads/stores/release mix)
    MpSys,  //!< message passing across GPUs, rel/acq at .sys
    MpGpu,  //!< message passing within one GPU, rel/acq at .gpu
    MpGpuCross, //!< deliberately mis-scoped MP across GPUs (must fail)
    SbSys,  //!< store buffering, .sys fences + .sys loads
    WrcSys, //!< write-to-read causality, three threads, .sys
};

const char *toString(Workload w);

/**
 * Most cache lines a model workload uses. A directory with this many
 * entries per node never replaces, so it caps dirEntriesPerNode.
 */
constexpr std::uint32_t kMaxLines = 3;

/** Model-checker configuration (the "small config" of the issue). */
struct MckConfig
{
    bool hier = true;              //!< true = HMG, false = NHCC
    /**
     * 1 = the paper's two-level home chain; 2 = a 2-node machine whose
     * home chain has a live node tier (requires hier, numGpus = 4,
     * gpmsPerGpu = 2 — the smallest shape where requester, GPU home,
     * node home and system home are four distinct GPMs).
     */
    std::uint32_t numNodes = 1;
    std::uint32_t numGpus = 2;
    std::uint32_t gpmsPerGpu = 2;
    std::uint32_t numLines = 2;
    /** Directory entries per GPM node, 1..kMaxLines; 1 forces Replace
     *  transitions. */
    std::uint32_t dirEntriesPerNode = 1;
    Workload workload = Workload::Free;
    /**
     * Test hook: explore a table seeded with TableSeed::BadStoreRow, a
     * store row that emits no invalidations, proving the checker
     * produces a counterexample trace for a bad table row.
     */
    bool seedBadRow = false;
};

/** Exhaustively explore the protocol under `cfg`. */
MckResult exploreProtocol(const MckConfig &cfg);

} // namespace hmg::verify

#endif // HMG_VERIFY_MODEL_HH
