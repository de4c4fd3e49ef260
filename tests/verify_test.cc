/**
 * @file
 * Tests for the src/verify/ subsystem: the declarative transition
 * tables the timing simulator dispatches through, the static table
 * check (invariant family 1; the message-class graph is the cdg lint
 * family's, tests/lint_test.cc), and the exhaustive model checker
 * behind hmgcheck's explore stage (families 2-4).
 */

#include <gtest/gtest.h>

#include "verify/model.hh"
#include "verify/spec.hh"

namespace hmg::verify
{
namespace
{

// ------------------------------------------------------------------
// Family 1: static table properties.
// ------------------------------------------------------------------

TEST(VerifyTables, AllTablesAckFreeTransientFreeComplete)
{
    const TableSet tables;
    std::size_t count = 0;
    for (const TransitionTable &t : tables) {
        ++count;
        for (const auto &p : checkTable(t))
            ADD_FAILURE() << t.name << ": " << p;
        EXPECT_GT(t.numRows, 0u);
        // An unseeded copy holds exactly the rows the simulator uses.
        EXPECT_EQ(t.numRows, tableFor(t.role).numRows);
    }
    EXPECT_EQ(count, 4u); // NHCC flat + HMG sys/node/GPU home tiers
}

TEST(VerifyTables, FindTransitionMatchesGuards)
{
    const TransitionTable &t = tableFor(Role::SysHome);
    // The home-store row splits on whether the writer is tracked; both
    // variants must resolve, to different rows.
    const Transition *tracked =
        findTransition(t, DirState::Valid, DirEvent::Store, true);
    const Transition *untracked =
        findTransition(t, DirState::Valid, DirEvent::Store, false);
    ASSERT_NE(tracked, nullptr);
    ASSERT_NE(untracked, nullptr);
    EXPECT_NE(tracked, untracked);
}

// ------------------------------------------------------------------
// Families 2-4: exhaustive exploration.
// ------------------------------------------------------------------

MckConfig
cfgFor(bool hier, Workload w)
{
    MckConfig cfg;
    cfg.hier = hier;
    cfg.workload = w;
    return cfg;
}

TEST(VerifyModel, FreeExplorationNhcc)
{
    MckResult r = exploreProtocol(cfgFor(false, Workload::Free));
    EXPECT_TRUE(r.ok) << r.violation;
    EXPECT_GT(r.statesExplored, 1000u);
    EXPECT_GT(r.finalStates, 0u);
}

TEST(VerifyModel, FreeExplorationHmg)
{
    MckResult r = exploreProtocol(cfgFor(true, Workload::Free));
    EXPECT_TRUE(r.ok) << r.violation;
    EXPECT_GT(r.statesExplored, 1000u);
    EXPECT_GT(r.finalStates, 0u);
}

TEST(VerifyModel, LitmusSuitePassesBothProtocols)
{
    for (bool hier : {false, true})
        for (Workload w : {Workload::MpSys, Workload::SbSys,
                           Workload::WrcSys}) {
            MckResult r = exploreProtocol(cfgFor(hier, w));
            EXPECT_TRUE(r.ok) << (hier ? "hmg " : "nhcc ") << toString(w)
                              << ": " << r.violation;
            EXPECT_GT(r.finalStates, 0u);
        }
}

TEST(VerifyModel, GpuScopedMessagePassingHoldsUnderHmg)
{
    MckResult r = exploreProtocol(cfgFor(true, Workload::MpGpu));
    EXPECT_TRUE(r.ok) << r.violation;
}

TEST(VerifyModel, MisScopedMessagePassingIsCaught)
{
    // Deliberately wrong program: .gpu-scoped rel/acq synchronizing
    // across GPUs. The forbidden outcome must be reachable, and the
    // checker must return a non-empty counterexample trace for it.
    MckResult r = exploreProtocol(cfgFor(true, Workload::MpGpuCross));
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.violation.find("scoped-RC"), std::string::npos)
        << r.violation;
    EXPECT_FALSE(r.trace.empty());
}

TEST(VerifyModel, SeededBadTableRowProducesCounterexample)
{
    // The acceptance-criterion hook: corrupt the home store row so it
    // emits no invalidations; exploration must find a violation and
    // reconstruct a minimal trace to it.
    for (bool hier : {false, true}) {
        MckConfig cfg = cfgFor(hier, Workload::MpSys);
        cfg.seedBadRow = true;
        MckResult r = exploreProtocol(cfg);
        EXPECT_FALSE(r.ok) << (hier ? "hmg" : "nhcc")
                           << ": bad row not detected";
        EXPECT_FALSE(r.violation.empty());
        EXPECT_FALSE(r.trace.empty());
        // The trace is minimal (BFS): replaying fewer steps cannot
        // reach a violation, so it should be short on this workload.
        EXPECT_LE(r.trace.size(), 12u);
    }
}

TEST(VerifyModel, DirectoryCapacityPressureStillSound)
{
    // dirEntriesPerNode=1 (the default) forces Replace fans; a roomier
    // directory must also pass and visit a different state count.
    MckConfig a = cfgFor(true, Workload::Free);
    MckConfig b = a;
    b.dirEntriesPerNode = 2;
    MckResult ra = exploreProtocol(a);
    MckResult rb = exploreProtocol(b);
    EXPECT_TRUE(ra.ok) << ra.violation;
    EXPECT_TRUE(rb.ok) << rb.violation;
    EXPECT_NE(ra.statesExplored, rb.statesExplored);
}

} // namespace
} // namespace hmg::verify
