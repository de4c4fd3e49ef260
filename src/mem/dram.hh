/**
 * @file
 * Per-GPM DRAM channel model.
 *
 * A GPM's local DRAM partition is a bandwidth-serialized channel
 * (1 TB/s per GPU / 4 GPMs by default) plus a fixed access latency.
 * Reads and writes contend for the same channel, matching an HBM stack's
 * shared bus. Capacity is tracked only for sanity checks — the traces
 * address virtual memory that first-touch placement maps here.
 */

#ifndef HMG_MEM_DRAM_HH
#define HMG_MEM_DRAM_HH

#include <cstdint>

#include "common/config.hh"
#include "common/stats.hh"
#include "sim/engine.hh"
#include "sim/serializer.hh"

namespace hmg
{

/** One GPM's DRAM partition. */
class Dram
{
  public:
    Dram(Engine &engine, const SystemConfig &cfg);

    /** Issue a line read. @return absolute completion tick. */
    Tick read(std::uint32_t bytes);

    /** Issue a line write. @return absolute completion tick. */
    Tick write(std::uint32_t bytes);

    std::uint64_t reads() const { return reads_; }
    std::uint64_t writes() const { return writes_; }
    std::uint64_t bytesTransferred() const { return channel_.bytesTotal(); }

    void reportStats(StatRecorder &r, const std::string &prefix) const;

  private:
    Engine &engine_;
    RateSerializer channel_;
    Tick latency_;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
};

} // namespace hmg

#endif // HMG_MEM_DRAM_HH
