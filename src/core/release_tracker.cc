#include "core/release_tracker.hh"

#include <utility>

#include "common/log.hh"

namespace hmg
{

ReleaseTracker::ReleaseTracker(LpDomain &lps, std::uint32_t num_sms)
    : lps_(lps), sms_(num_sms)
{
}

std::uint64_t
ReleaseTracker::totalPendingSys() const
{
    std::uint64_t sum = 0;
    for (const auto &p : lp_pending_)
        sum += p.v.load(std::memory_order_relaxed);
    return sum;
}

void
ReleaseTracker::issued(SmId sm)
{
    PerSm &s = sms_.at(sm);
    s.gpu.issue();
    s.sys.issue();
    lp_pending_[LpDomain::currentLp()].v.fetch_add(
        1, std::memory_order_relaxed);
}

void
ReleaseTracker::reachedGpuLevel(SmId sm)
{
    sms_.at(sm).gpu.land();
}

void
ReleaseTracker::reachedSysLevel(SmId sm)
{
    PerSm &s = sms_.at(sm);
    auto &slab = lp_pending_[LpDomain::currentLp()].v;
    const std::uint64_t before =
        slab.fetch_sub(1, std::memory_order_relaxed);
    hmg_assert(before > 0);
    s.sys.land();
    if (before == 1) {
        // This LP just drained. Global waiters only exist during kernel
        // boundaries, when no SM issues new writes — the total is
        // monotonically decreasing, so a posted recheck that reads zero
        // reads a stable zero.
        lps_.post(0, [this]() { recheckGlobalDrained(); });
    }
}

void
ReleaseTracker::waitGpuLevel(SmId sm, Callback cb)
{
    sms_.at(sm).gpu.wait(std::move(cb));
}

void
ReleaseTracker::waitSysLevel(SmId sm, Callback cb)
{
    sms_.at(sm).sys.wait(std::move(cb));
}

void
ReleaseTracker::waitAllDrained(Callback cb)
{
    hmg_assert(LpDomain::currentLp() == 0);
    if (totalPendingSys() == 0)
        cb();
    else
        global_waiters_.push_back(std::move(cb));
}

void
ReleaseTracker::recheckGlobalDrained()
{
    if (global_waiters_.empty() || totalPendingSys() != 0)
        return;
    auto waiters = std::move(global_waiters_);
    global_waiters_.clear();
    for (auto &cb : waiters)
        cb();
}

} // namespace hmg
