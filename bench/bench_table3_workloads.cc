/**
 * @file
 * Table III — the benchmark suite: paper footprints vs our scaled
 * synthetic traces (see DESIGN.md for the substitution rationale), plus
 * each workload's synchronization style (Section VI: cuSolver,
 * namd2.10 and mst use explicit .gpu-scoped synchronization; most
 * others communicate through frequent dependent kernels).
 *
 * Trace generation for the 20 workloads is independent per workload, so
 * it runs on the SweepRunner pool (`--jobs N`); rows are collected by
 * index and printed in suite order.
 */

#include <cstdio>

#include "bench_common.hh"
#include "sim/sweep.hh"

int
main(int argc, char **argv)
{
    using namespace hmgbench;
    // --jobs and HMG_JOBS are checked before anything is printed.
    hmg::SweepRunner runner(hmg::parseJobsFlag(argc, argv));
    banner("Table III: benchmark suite", "HMG paper, Table III");

    const auto &infos = hmg::trace::workloads::list();

    struct Row
    {
        double footprintMB = 0;
        std::size_t kernels = 0;
        std::uint64_t memOps = 0;
    };
    std::vector<Row> rows(infos.size());

    runner.forEach(infos.size(), [&](std::size_t i) {
        const auto t =
            hmg::trace::workloads::make(infos[i].name, benchScale());
        rows[i] = {static_cast<double>(t.footprintBytes()) / 1024 / 1024,
                   t.kernels.size(), t.memOps()};
    });

    std::printf("%-12s %-24s %-9s %10s %10s %8s %8s %-12s\n", "key",
                "benchmark", "category", "paper fp", "our fp", "kernels",
                "mem ops", "sync");
    for (std::size_t i = 0; i < infos.size(); ++i) {
        const auto &info = infos[i];
        std::printf("%-12s %-24s %-9s %8.0fMB %8.1fMB %8zu %8llu %-12s\n",
                    info.name.c_str(), info.fullName.c_str(),
                    info.category.c_str(), info.paperFootprintMB,
                    rows[i].footprintMB, rows[i].kernels,
                    static_cast<unsigned long long>(rows[i].memOps),
                    info.syncStyle.c_str());
        std::fflush(stdout);
    }
    std::printf("\nfootprints are scaled for simulation speed; sharing "
                "patterns per workload are documented in "
                "src/trace/workloads_*.cc\n");
    return 0;
}
