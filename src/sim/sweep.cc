#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

#include "common/cli.hh"
#include "common/log.hh"
#include "sim/watchdog.hh"
#include "trace/workloads.hh"

namespace hmg
{

unsigned
SweepRunner::defaultJobs()
{
    if (const char *s = std::getenv("HMG_JOBS"))
        return static_cast<unsigned>(parseU64("HMG_JOBS", s, 1, 4096));
    // The host core count picks the worker count, never a result.
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

SweepRunner::SweepRunner(unsigned jobs) : jobs_(jobs ? jobs : defaultJobs()) {}

void
SweepRunner::forEach(std::size_t n,
                     const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    const auto workers =
        static_cast<unsigned>(std::min<std::size_t>(jobs_, n));
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    // The atomic hands out cell *indices*; which worker claims a cell
    // changes timing only, results land in cell order.
    std::atomic<std::size_t> next{0};
    // First error wins; the rest are dropped.
    std::mutex error_mutex;
    std::exception_ptr first_error;
    auto worker = [&]() {
        for (;;) {
            const std::size_t i = next.fetch_add(1,
                                                 std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned t = 1; t < workers; ++t)
        pool.emplace_back(worker);
    worker();
    for (auto &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

std::vector<SimResult>
SweepRunner::run(const std::vector<SweepCell> &cells)
{
    std::vector<SimResult> results(cells.size());
    forEach(cells.size(), [&](std::size_t i) {
        const SweepCell &c = cells[i];
        const auto trace =
            trace::workloads::make(c.workload, c.scale, c.seed);
        // A hung/faulted cell is isolated: the SimHang never escapes to
        // forEach (which would kill the whole sweep). The cell is
        // retried once on a fresh Simulator — a transient host-side
        // cause (and, later, checkpoint-restore) deserves one more
        // shot — then reported as degraded with the watchdog
        // diagnostic attached. Deterministic cells will hang twice;
        // the retry is cheap relative to losing the sweep.
        for (int attempt = 0;; ++attempt) {
            try {
                Simulator sim(c.cfg);
                results[i] = sim.run(trace);
                break;
            } catch (const SimHang &h) {
                if (attempt == 0) {
                    warnImpl("sweep cell %zu (%s) hung: %s — retrying",
                             i, c.workload.c_str(), h.what());
                    continue;
                }
                results[i].degraded = true;
                results[i].degradedReason = h.what();
                results[i].diagnostic = h.diagnostic();
                break;
            }
        }
    });
    return results;
}

unsigned
parseJobsFlag(int argc, char **argv)
{
    unsigned jobs = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") != 0)
            hmg_fatal("unknown argument '%s' (only --jobs N is accepted)",
                      argv[i]);
        if (i + 1 == argc)
            hmg_fatal("--jobs wants a value");
        jobs = static_cast<unsigned>(parseU64("--jobs", argv[++i], 1, 4096));
    }
    return jobs;
}

} // namespace hmg
