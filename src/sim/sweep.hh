/**
 * @file
 * Parallel experiment sweeps.
 *
 * Every figure and table of the paper is a grid of independent
 * simulations — 20 workloads x up to 6 protocol configurations — and a
 * Simulator is completely self-contained (one Engine, one System, no
 * shared mutable state), so the grid is embarrassingly parallel.
 * SweepRunner runs the cells of such a grid on a pool of threads and
 * collects results *by cell index*, so the output is deterministic and
 * bit-identical to a serial run regardless of the thread count or the
 * order in which cells finish. DESIGN.md ("Event kernel & parallel
 * sweeps") states the determinism argument; tests/sweep_test.cc proves
 * it.
 *
 * Layering note: this header sits *above* the gpu/ facade (it spawns
 * whole Simulators), unlike the rest of sim/ which is below everything.
 * It lives here because it is simulation infrastructure, not a model.
 */

#ifndef HMG_SIM_SWEEP_HH
#define HMG_SIM_SWEEP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "gpu/simulator.hh"

namespace hmg
{

/** One (workload, configuration) cell of an experiment grid. */
struct SweepCell
{
    std::string workload;    //!< Table III workload key
    SystemConfig cfg;        //!< full configuration, protocol included
    double scale = 1.0;      //!< trace scale factor
    std::uint64_t seed = 1;  //!< trace RNG seed
};

/**
 * A fixed-width thread pool for independent simulation jobs. The pool is
 * created per sweep (simulations run for seconds; thread start-up is
 * noise), and the calling thread works too, so `jobs == 1` degenerates
 * to a plain serial loop with no threads at all.
 */
class SweepRunner
{
  public:
    /** @param jobs worker count; 0 picks defaultJobs(). */
    explicit SweepRunner(unsigned jobs = 0);

    unsigned jobs() const { return jobs_; }

    /**
     * Run `body(i)` for every i in [0, n), distributing indices over the
     * pool. Bodies must not share mutable state (results should be
     * written to per-index slots). If a body throws, the first exception
     * is rethrown here after all workers finish.
     */
    void forEach(std::size_t n, const std::function<void(std::size_t)> &body);

    /**
     * Simulate every cell (trace generation included) and return results
     * in cell order. Each cell gets a fresh Simulator; nothing is shared
     * between cells, so results are independent of `jobs`. A cell that
     * hangs under fault injection (SimHang) is isolated, retried once,
     * and on a second hang returned with `degraded` set and the
     * watchdog diagnostic attached — one wedged cell never kills the
     * sweep (DESIGN.md §11).
     */
    std::vector<SimResult> run(const std::vector<SweepCell> &cells);

    /** Job count affects wall-clock only; cell results are independent
     *  of it (each cell gets a fresh Simulator). HMG_JOBS env override,
     *  else the hardware thread count. The entropy sources behind this
     *  carry their own justifications at the definition (sweep.cc). */
    static unsigned defaultJobs();

  private:
    unsigned jobs_;
};

/**
 * Parse a sweep bench's command line, which takes only `--jobs N` (N in
 * [1, 4096], strictly parsed as hmgsim's flag is). Any other argument,
 * a missing value or a malformed one is a one-line fatal. Returns 0 —
 * meaning "use SweepRunner's default" — when `--jobs` is absent.
 */
unsigned parseJobsFlag(int argc, char **argv);

} // namespace hmg

#endif // HMG_SIM_SWEEP_HH
