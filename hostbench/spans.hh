/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is one timed call into a layer's public API: a name, its start
 * and end on the steady clock, and the span that caused it. Spans are
 * appended to a vector while the run goes and written out as JSON once it
 * ends, so recording costs two clock reads and one push_back.
 */

#ifndef HOSTBENCH_SPANS_HH
#define HOSTBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hostbench
{

struct Span
{
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< 0 for a root span
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;

    std::int64_t durationNs() const { return endNs - startNs; }
};

/** Nanoseconds on the steady clock. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

class Tracer
{
  public:
    /** Open a span under `parent` (0 = root). @return its id. */
    std::uint64_t begin(const std::string &name, std::uint64_t parent = 0);
    void end(std::uint64_t id);

    const std::vector<Span> &spans() const { return spans_; }

    /** JSON array of every span with its self time. */
    std::string toJson() const;

  private:
    std::vector<Span> spans_;
};

/**
 * Self time of every span, keyed by id: its duration minus the part of
 * its interval that its direct children cover (overlapping children are
 * merged, and children are clipped to the parent's interval).
 */
std::map<std::uint64_t, std::int64_t> selfTimes(const std::vector<Span> &s);

/** Check selfTimes() on a synthetic tree. @return 0 on success. */
int selfTestSpans();

} // namespace hostbench

#endif // HOSTBENCH_SPANS_HH
