/**
 * @file
 * Figure 8 — the headline result: normalized speedup of the five cached
 * configurations over the no-remote-caching baseline on the 4-GPU,
 * 4-GPM-per-GPU machine, for all 20 workloads plus the geomean.
 *
 * The 20x6 grid of independent simulations runs on a SweepRunner thread
 * pool (`--jobs N`, default every core); results are collected by cell
 * index, so the printed table is bit-identical for any job count.
 *
 * Paper shape to check:
 *  - every protocol beats the baseline on most workloads;
 *  - hierarchical protocols beat their non-hierarchical counterparts
 *    (HMG > NHCC, SW-Hier > SW-NonHier overall);
 *  - HMG is the best real protocol and lands within a few percent of
 *    idealized caching (paper: 97% of ideal on the geomean; +26% over
 *    non-hierarchical software coherence; +18% over NHCC);
 *  - mst is the adversarial case: 4-line directory sectors cause false
 *    sharing and HMG loses its edge there.
 */

#include <cstdio>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace hmgbench;
    hmgbench::banner("Fig. 8: 4-GPU system, speedup vs no-remote-caching",
                     "HMG paper, Figure 8 (Section VII-A)");

    const auto names = fullSuite();
    const auto &protos = allProtocols();
    const std::size_t stride = 1 + protos.size();

    hmg::SweepRunner runner(hmg::parseJobsFlag(argc, argv));
    const auto results = runner.run(fig8Cells());

    std::printf("%-12s | %9s %9s %9s %9s %9s\n", "workload", "SW-NonH",
                "NHCC", "SW-Hier", "HMG", "Ideal");

    std::vector<std::vector<double>> speedups(protos.size());
    for (std::size_t w = 0; w < names.size(); ++w) {
        const double base =
            static_cast<double>(results[w * stride].cycles);
        std::printf("%-12s |", names[w].c_str());
        for (std::size_t i = 0; i < protos.size(); ++i) {
            const double c =
                static_cast<double>(results[w * stride + 1 + i].cycles);
            const double sp = base / c;
            speedups[i].push_back(sp);
            std::printf(" %9.2f", sp);
        }
        std::printf("\n");
        std::fflush(stdout);
    }
    std::printf("%-12s |", "GeoMean");
    for (const auto &s : speedups)
        std::printf(" %9.2f", geomean(s));
    std::printf("\n\n");

    const double hmg = geomean(speedups[3]);
    std::printf("HMG / SW-NonHier : %.2f   (paper: 1.26)\n",
                hmg / geomean(speedups[0]));
    std::printf("HMG / NHCC       : %.2f   (paper: 1.18)\n",
                hmg / geomean(speedups[1]));
    std::printf("HMG / Ideal      : %.2f%%  (paper: 97%%)\n",
                100.0 * hmg / geomean(speedups[4]));
    std::printf("paper geomeans (read off Fig. 8): SW-NonHier ~1.45, "
                "NHCC ~1.55, HMG ~1.83, Ideal ~1.89\n");
    return 0;
}
