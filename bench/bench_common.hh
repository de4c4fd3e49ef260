/**
 * @file
 * Shared plumbing for the per-table / per-figure benchmark binaries.
 *
 * Every binary regenerates one table or figure of the paper: it runs
 * the relevant simulations, prints the same rows/series the paper
 * reports, and quotes the paper's published values (`paper:` lines) so
 * shapes can be compared at a glance. Absolute numbers are not expected
 * to match — the substrate is a simulator, not the authors' testbed
 * (see DESIGN.md) — but the orderings and rough factors should.
 *
 * The HMG_BENCH_SCALE environment variable (default 1.0) multiplies
 * every workload's per-warp iteration count for quicker smoke runs.
 */

#ifndef HMG_BENCH_BENCH_COMMON_HH
#define HMG_BENCH_BENCH_COMMON_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "gpu/simulator.hh"
#include "sim/sweep.hh"
#include "trace/workloads.hh"

namespace hmgbench
{

/** HMG_BENCH_SCALE, parsed as strictly as hmgsim's --scale. */
inline double
benchScale()
{
    const char *s = std::getenv("HMG_BENCH_SCALE");
    if (!s)
        return 1.0;
    const double scale = hmg::parseF64("HMG_BENCH_SCALE", s, 0.0, 1e6);
    if (scale <= 0.0)
        hmg_fatal("HMG_BENCH_SCALE wants a positive factor");
    return scale;
}

/** The five cached configurations of Figs. 2/8, plus the baseline. */
inline const std::vector<hmg::Protocol> &
allProtocols()
{
    static const std::vector<hmg::Protocol> p = {
        hmg::Protocol::SwNonHier, hmg::Protocol::Nhcc,
        hmg::Protocol::SwHier, hmg::Protocol::Hmg, hmg::Protocol::Ideal};
    return p;
}

/** Full Table III suite, Fig. 8 order. */
inline std::vector<std::string>
fullSuite()
{
    std::vector<std::string> names;
    for (const auto &i : hmg::trace::workloads::list())
        names.push_back(i.name);
    return names;
}

/**
 * The Fig. 8 grid at HMG_BENCH_SCALE: per workload, the baseline cell
 * followed by the five cached configurations, in Fig. 8 column order.
 */
inline std::vector<hmg::SweepCell>
fig8Cells()
{
    std::vector<hmg::SweepCell> cells;
    for (const auto &name : fullSuite()) {
        hmg::SystemConfig cfg;
        cfg.protocol = hmg::Protocol::NoRemoteCache;
        cells.push_back({name, cfg, benchScale(), 1});
        for (auto p : allProtocols()) {
            cfg.protocol = p;
            cells.push_back({name, cfg, benchScale(), 1});
        }
    }
    return cells;
}

/**
 * Representative subset used by the sensitivity sweeps (Figs. 12-14
 * report geomeans only; rerunning all 20 workloads per design point
 * would add nothing but wall-clock): one flat-profile broadcast
 * workload, the two hierarchy showcases, a fine-grained RNN, the
 * false-sharing adversary, and a wavefront code.
 */
inline std::vector<std::string>
sensitivitySuite()
{
    return {"overfeat", "alexnet", "miniamr", "lstm", "mst", "snap"};
}

/** Run `name` under `cfg` (protocol already set). */
inline hmg::SimResult
run(const hmg::SystemConfig &cfg, const std::string &name)
{
    auto trace = hmg::trace::workloads::make(name, benchScale());
    hmg::Simulator sim(cfg);
    return sim.run(trace);
}

inline double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / static_cast<double>(v.size()));
}

/** Pearson correlation coefficient. */
inline double
correlation(const std::vector<double> &x, const std::vector<double> &y)
{
    const auto n = static_cast<double>(x.size());
    double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        sx += x[i];
        sy += y[i];
        sxx += x[i] * x[i];
        syy += y[i] * y[i];
        sxy += x[i] * y[i];
    }
    double num = n * sxy - sx * sy;
    double den = std::sqrt((n * sxx - sx * sx) * (n * syy - sy * sy));
    return den == 0 ? 0 : num / den;
}

inline void
banner(const char *what, const char *paper_ref)
{
    std::printf("================================================"
                "====================\n");
    std::printf("%s\n", what);
    std::printf("reproduces: %s\n", paper_ref);
    std::printf("workload scale: %.2f (HMG_BENCH_SCALE)\n", benchScale());
    std::printf("================================================"
                "====================\n");
}

} // namespace hmgbench

#endif // HMG_BENCH_BENCH_COMMON_HH
