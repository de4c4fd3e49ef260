/**
 * @file
 * Exact-rational bandwidth serialization: the one bandwidth model. NoC
 * ports (noc/port.hh), GPM DRAM channels (mem/dram.hh) and SM issue
 * ports (gpu/sm.hh) each own a RateSerializer.
 *
 * Occupancy accounting is exact integer arithmetic: the bandwidth is
 * quantized once, at construction, to the rational bw_num_/bw_den_
 * bytes per cycle (2^-20 B/cyc resolution, sub-ppm of any Table II
 * figure), and a message of B bytes occupies B * bw_den_ "sub-cycle
 * units" of 1/bw_num_ cycle each. The serializer-free time is then the
 * pair (free_cycle_, free_frac_) with 0 <= free_frac_ < bw_num_.
 * Unlike a floating-point accumulator, the result cannot drift: 10M
 * back-to-back sends land exactly where one send of 10M times the bytes
 * would.
 */

#ifndef HMG_SIM_SERIALIZER_HH
#define HMG_SIM_SERIALIZER_HH

#include <cmath>
#include <cstdint>
#include <numeric>

#include "common/log.hh"
#include "common/types.hh"

namespace hmg
{

/** Wire-occupancy bookkeeping for one direction of one link. */
class RateSerializer
{
  public:
    explicit RateSerializer(double bytes_per_cycle)
        : bytes_per_cycle_(bytes_per_cycle)
    {
        hmg_assert(bytes_per_cycle > 0);
        // Quantize the (possibly fractional) bandwidth to an exact
        // rational bw_num_/bw_den_ B/cyc so occupancy accounting never
        // drifts. Common values (integers, halves like 1.5 B/cyc) are
        // represented exactly.
        constexpr std::uint64_t kScale = std::uint64_t{1} << 20;
        bw_num_ = static_cast<std::uint64_t>(
            std::llround(bytes_per_cycle * static_cast<double>(kScale)));
        hmg_assert(bw_num_ > 0);
        bw_den_ = kScale;
        const std::uint64_t g = std::gcd(bw_num_, bw_den_);
        bw_num_ /= g;
        bw_den_ /= g;
    }

    /**
     * Occupy the wire with `bytes` bytes, starting no earlier than
     * `earliest`. @return the tick at which the last byte has left
     * (ceiling of the exact free time).
     */
    Tick
    serialize(Tick earliest, std::uint32_t bytes)
    {
        // Serialization starts at max(exact free time, earliest). An
        // idle gap discards the fractional remainder: the serializer was
        // idle at the whole-cycle tick `earliest`.
        if (earliest > free_cycle_ ||
            (earliest == free_cycle_ && free_frac_ == 0)) {
            free_cycle_ = earliest;
            free_frac_ = 0;
        }
        const std::uint64_t units =
            free_frac_ + std::uint64_t{bytes} * bw_den_;
        free_cycle_ += units / bw_num_;
        free_frac_ = units % bw_num_;
        bytes_total_ += bytes;
        return busyUntil();
    }

    /** Tick at which the wire next becomes free (ceiling). */
    Tick busyUntil() const
    {
        return free_cycle_ + (free_frac_ != 0 ? 1 : 0);
    }

    /** Exact free time, whole-cycle part. A new message may start
     *  serializing at tick `t` iff freeCycle() <= t. */
    Tick freeCycle() const { return free_cycle_; }

    /** Cycles the wire has spent occupied, exact (bytes / bandwidth). */
    double
    busyCycles() const
    {
        return static_cast<double>(bytes_total_) *
               static_cast<double>(bw_den_) / static_cast<double>(bw_num_);
    }

    std::uint64_t bytesTotal() const { return bytes_total_; }
    double bytesPerCycle() const { return bytes_per_cycle_; }

  private:
    double bytes_per_cycle_;
    std::uint64_t bw_num_ = 1;
    std::uint64_t bw_den_ = 1;
    Tick free_cycle_ = 0;
    std::uint64_t free_frac_ = 0;
    std::uint64_t bytes_total_ = 0;
};

} // namespace hmg

#endif // HMG_SIM_SERIALIZER_HH
