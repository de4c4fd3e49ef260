/**
 * @file
 * Lightweight statistics collection.
 *
 * Components keep plain `std::uint64_t` counters for speed and implement a
 * `reportStats(StatRecorder&)` method that names them. A StatRecorder
 * holds `(name, value)` pairs; names are dot-separated paths such as
 * "gpu0.l2.load_hits". Every name is written once: a second write
 * panics and names the key, so no figure can silently count something
 * twice.
 *
 * Aggregation is explicit. A component whose stats are reported only as
 * a sum over its siblings (GPMs, SMs, fault links) reports into a fresh
 * recorder of its own, so a key it writes twice still panics there.
 * add() sums such parts and is the only path that sums;
 * record(prefix, part) files the sum under its prefix, set-once as well.
 */

#ifndef HMG_COMMON_STATS_HH
#define HMG_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>

namespace hmg
{

/** An ordered name -> value map of simulation statistics. */
class StatRecorder
{
  public:
    /** Set the stat called `name`. Panics if `name` is already set. */
    void record(const std::string &name, double value);

    /** Set `<prefix>.<name>` for every stat of `part`; panics like
     *  record(name, value) if any of those names is already set. */
    void record(const std::string &prefix, const StatRecorder &part);

    /** Add every stat of `part` to the stat of the same name here
     *  (creating it at zero). The only path that sums. */
    void add(const StatRecorder &part);

    /** Value of `name`, or 0 if never recorded. */
    double get(const std::string &name) const;

    /** All stats, sorted by name. */
    const std::map<std::string, double> &all() const { return stats_; }

    /** Multi-line "name value" dump. */
    std::string toString() const;

  private:
    std::map<std::string, double> stats_;
};

/**
 * A running mean (sum and sample count only — no distribution is kept)
 * for quantities like "sharers invalidated per store" (Figures 9 and 10
 * report the means of these). Use Pow2Histogram when the shape of the
 * distribution matters too.
 */
class MeanStat
{
  public:
    void sample(double v) { sum_ += v; ++count_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    void reset() { sum_ = 0; count_ = 0; }

  private:
    double sum_ = 0;
    std::uint64_t count_ = 0;
};

/**
 * A small power-of-two-bucket histogram of non-negative integer samples:
 * bucket b counts samples in [2^(b-1), 2^b), with bucket 0 holding the
 * zeros and the last bucket absorbing everything beyond the range.
 * Coarse on purpose — enough to tell "all short with a long tail" from
 * "uniformly slow" (e.g. per-hop queueing delays) at the cost of a few
 * words per instance.
 */
class Pow2Histogram
{
  public:
    static constexpr std::size_t kBuckets = 20;

    void
    sample(std::uint64_t v)
    {
        std::size_t b = 0;
        while (v > 0 && b + 1 < kBuckets) {
            v >>= 1;
            ++b;
        }
        ++buckets_[b];
        ++count_;
    }

    std::uint64_t bucket(std::size_t b) const { return buckets_[b]; }
    std::uint64_t count() const { return count_; }

    /** Record the non-empty buckets as `<prefix>.le_<2^b>` entries. */
    void
    reportStats(StatRecorder &r, const std::string &prefix) const
    {
        for (std::size_t b = 0; b < kBuckets; ++b) {
            if (buckets_[b] == 0)
                continue;
            r.record(prefix + ".le_" +
                         std::to_string(std::uint64_t{1} << b),
                     static_cast<double>(buckets_[b]));
        }
    }

  private:
    std::uint64_t buckets_[kBuckets] = {};
    std::uint64_t count_ = 0;
};

} // namespace hmg

#endif // HMG_COMMON_STATS_HH
