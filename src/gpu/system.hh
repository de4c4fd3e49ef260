/**
 * @file
 * Wiring of the whole simulated machine: engine, page table, memory
 * oracle, interconnect, GPM nodes, release tracker, the selected
 * coherence model, SMs, and the CTA scheduler.
 */

#ifndef HMG_GPU_SYSTEM_HH
#define HMG_GPU_SYSTEM_HH

#include <memory>
#include <vector>

#include "cache/tag_store.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "core/protocol.hh"
#include "gpu/cta_scheduler.hh"
#include "gpu/gpm.hh"
#include "gpu/sm.hh"
#include "mem/memory_state.hh"
#include "mem/page_table.hh"
#include "noc/network.hh"
#include "sim/engine.hh"
#include "sim/lp.hh"

namespace hmg
{

/** The fully assembled simulated multi-GPU machine. */
class System
{
  public:
    explicit System(const SystemConfig &cfg);

    /**
     * Bytes of the tag store a System of `cfg` maps: every L1 and L2
     * tag array and, under the hardware protocols, every directory,
     * each region aligned (cache/tag_store.hh). `cfg` must be valid.
     */
    static std::uint64_t tagStoreBytes(const SystemConfig &cfg);

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** LP 0's engine — the only one in unpartitioned runs. Direct-drive
     *  tests and tools that schedule into the system use it; partitioned
     *  execution goes through lps().run(). */
    Engine &engine() { return lps_.engine(0); }
    LpDomain &lps() { return lps_; }
    const SystemConfig &cfg() const { return cfg_; }
    SystemContext &ctx() { return *ctx_; }
    CoherenceModel &model() { return *model_; }
    Network &network() { return *net_; }
    PageTable &pageTable() { return pages_; }
    MemoryState &memory() { return mem_; }
    ReleaseTracker &tracker() { return tracker_; }
    CtaScheduler &scheduler() { return *scheduler_; }
    const TagStore &tagStore() const { return *tags_; }

    Sm &sm(SmId id) { return *sms_.at(id); }
    GpmNode &gpm(GpmId id) { return *gpms_.at(id); }
    std::uint32_t numSms() const
    {
        return static_cast<std::uint32_t>(sms_.size());
    }

    /** Gather every component's statistics. */
    void reportStats(StatRecorder &r) const;

    /**
     * Monotone progress metric for the engine watchdog: delivered
     * network messages + executed SM ops. Raw engine-event counts would
     * hide a retry livelock (retries execute events forever while
     * delivering nothing).
     */
    std::uint64_t progressCounter() const;

    /**
     * Structured hang diagnostic (DESIGN.md §11): kernel/CTA position,
     * per-LP engine state and pending boundaries, NIC backlogs, stalled
     * ports with credit state, and per-link fault/retry state.
     */
    std::string diagnostic() const;

  private:
    SystemConfig cfg_;
    LpDomain lps_;
    PageTable pages_;
    MemoryState mem_;
    ReleaseTracker tracker_;
    /** Every L1, L2 and directory array. Declared before the GPMs and
     *  SMs that own those arrays, so it is unmapped after them. */
    std::unique_ptr<TagStore> tags_;
    std::unique_ptr<Network> net_;
    std::vector<std::unique_ptr<GpmNode>> gpms_;
    std::unique_ptr<SystemContext> ctx_;
    std::unique_ptr<CoherenceModel> model_;
    std::vector<std::unique_ptr<Sm>> sms_;
    std::unique_ptr<CtaScheduler> scheduler_;
};

} // namespace hmg

#endif // HMG_GPU_SYSTEM_HH
