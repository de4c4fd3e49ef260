/**
 * @file
 * Steady-state heap allocations of the event path.
 *
 * This binary replaces the global operator new and delete with versions
 * that count calls. Each cell is run at two trace scales, and the test
 * bounds the extra allocations of the larger run per extra trace op.
 * Taking the difference cancels what a run allocates once, whatever its
 * length: pools and slabs growing to their resident peak, the first
 * chunks of the transport queues, and end-of-run stat reporting. What
 * is left is what every op pays, which DESIGN.md §7 says is nothing but
 * transport queue chunk turnover and, in the hardware protocols, the
 * shared state of a release's marker rounds.
 *
 * The cells stress different paths: cuSolver under SW-NonHier (almost
 * every event SM-side, bulk L2 invalidation), mst under HMG (stores,
 * atomics, `.gpu` releases, invalidation fans), bfs under HMG (read
 * sharing across the fabric, merged and forwarded misses) and bfs under
 * the no-remote-caching baseline (remote loads that may not merge, whose
 * continuations park at the fetching GPM) and mst under NHCC with the
 * runtime coherence checker wrapping every completion (`--check`).
 *
 * The sizes below are the layout those allocation counts depend on: a
 * completion callback is one host cache line, and the engine's callback
 * and event slot are sized so every closure the protocols schedule
 * stays inline (sim/callback.hh, sim/engine.hh).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "gpu/simulator.hh"
#include "noc/message.hh"
#include "sim/callback.hh"
#include "sim/engine.hh"
#include "trace/workloads.hh"

namespace
{

std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(al);
    if (void *p = std::aligned_alloc(a, (n + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void *
operator new[](std::size_t n, std::align_val_t al)
{
    return countedAlignedAlloc(n, al);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace hmg
{
namespace
{

static_assert(sizeof(SmallCallback<kCompletionCbBytes>) == 64,
              "a completion callback is one 64-byte host line");
static_assert(sizeof(Engine::Callback) == 200);
static_assert(Engine::kSlotBytes == 224);
static_assert(sizeof(Message) == 232);

/** Allocations made by Simulator::run, and the ops it simulated. */
struct RunCount
{
    std::uint64_t allocs = 0;
    std::uint64_t ops = 0;
};

RunCount
countRun(const char *workload, Protocol protocol, bool check, double scale)
{
    const trace::Trace t = trace::workloads::make(workload, scale);
    SystemConfig cfg;
    cfg.protocol = protocol;
    cfg.checkCoherence = check;
    Simulator sim(cfg);
    const std::uint64_t before = g_allocs.load();
    const SimResult res = sim.run(t);
    return {g_allocs.load() - before, res.memOps};
}

/** A cell (optionally under `--check`), two scales whose traces differ
 *  in length (a workload's op count steps with the scale, so nearby
 *  scales can coincide) and the bound on its extra allocations per extra
 *  op. */
struct Cell
{
    const char *name;
    const char *workload;
    Protocol protocol;
    bool check;
    double lo;
    double hi;
    double maxPerOp;
};

class AllocTest : public ::testing::TestWithParam<Cell>
{
};

TEST_P(AllocTest, SteadyStateAllocationsPerOpAreBounded)
{
    const Cell c = GetParam();
    const RunCount lo = countRun(c.workload, c.protocol, c.check, c.lo);
    const RunCount hi = countRun(c.workload, c.protocol, c.check, c.hi);
    ASSERT_GT(hi.ops, lo.ops);
    const double extra = static_cast<double>(hi.allocs) -
                         static_cast<double>(lo.allocs);
    const double rate = extra / static_cast<double>(hi.ops - lo.ops);
    std::printf("%s: %llu allocs for %llu ops, %llu for %llu ops: "
                "%.4f per extra op\n",
                c.name,
                static_cast<unsigned long long>(lo.allocs),
                static_cast<unsigned long long>(lo.ops),
                static_cast<unsigned long long>(hi.allocs),
                static_cast<unsigned long long>(hi.ops), rate);
    EXPECT_LE(rate, c.maxPerOp);
}

/**
 * The bounds, from measurements with these scale pairs (the counts are
 * deterministic: they depend on neither the host nor the build type).
 * Before the event path stopped allocating, every store, atomic and
 * forwarded miss spilled a closure to the heap and every miss allocated
 * a waiter list: 0.50 (cusolver/SW-NonHier), 2.77 (mst/HMG), 2.29
 * (bfs/HMG) and 2.33 (bfs under the no-remote-caching baseline, whose
 * remote loads take the unmerged fetch) extra allocations per extra op.
 * After it, with what is left (transport queue chunks, invalidation
 * jobs, release state), 0.015, 0.10, 0.21 and 0.26; bfs's are almost all
 * Port queue chunks. Under `--check` (mst/NHCC), the coherence checker's
 * wrapped completions spilled their closures on every load, store,
 * atomic, acquire and release: 1.11 per extra op. Parked in the
 * checker's pool, 0.11. An invalidation fan no longer allocates a shared
 * job (its cause travels as one bit in each message): mst/HMG 0.099 ->
 * 0.057 and mst/NHCC under `--check` 0.110 -> 0.042. Each bound leaves
 * about 0.03-0.04 per op of headroom: anything that allocates on one op
 * in ten breaks it. A closure no longer can: SmallCallback refuses one
 * that does not fit its buffer at compile time.
 */
INSTANTIATE_TEST_SUITE_P(
    Cells, AllocTest,
    ::testing::Values(
        Cell{"cusolver_swnh", "cusolver", Protocol::SwNonHier, false, 0.25,
             0.5, 0.05},
        Cell{"mst_hmg", "mst", Protocol::Hmg, false, 0.5, 0.75, 0.09},
        Cell{"bfs_hmg", "bfs", Protocol::Hmg, false, 0.25, 0.5, 0.25},
        Cell{"bfs_baseline", "bfs", Protocol::NoRemoteCache, false, 0.25,
             0.5, 0.30},
        Cell{"mst_nhcc_check", "mst", Protocol::Nhcc, true, 0.5, 0.75,
             0.08}),
    [](const auto &info) { return std::string(info.param.name); });

} // namespace
} // namespace hmg
