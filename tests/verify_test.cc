/**
 * @file
 * Tests for the src/verify/ subsystem: the declarative transition
 * table the timing simulator dispatches through, the static table
 * check (invariant family 1; the message-class graph is the cdg lint
 * family's, tests/lint_test.cc), the commit step applyDirEvent decides
 * for both of its callers, and the exhaustive model checker behind
 * hmgcheck's explore stage (families 2-4).
 */

#include <iterator>
#include <vector>

#include <gtest/gtest.h>

#include "verify/apply.hh"
#include "verify/model.hh"
#include "verify/spec.hh"

namespace hmg::verify
{
namespace
{

// ------------------------------------------------------------------
// Family 1: static table properties.
// ------------------------------------------------------------------

TEST(VerifyTables, TableIsSoundAndSeedsCopyIt)
{
    for (const auto &p : checkTable(dirTable()))
        ADD_FAILURE() << p;
    // Table I: nine rows every home applies, then HMG's two InvRecv rows.
    EXPECT_EQ(dirTable().size(), 11u);
    // An unseeded copy holds exactly the rows the simulator uses.
    const std::vector<Transition> copy = seededTable(TableSeed::None);
    ASSERT_EQ(copy.size(), dirTable().size());
    for (std::size_t i = 0; i < copy.size(); ++i)
        EXPECT_EQ(rowName(copy, i), rowName(dirTable(), i));
}

TEST(VerifyTables, FindTransitionMatchesGuards)
{
    const TransitionTable t = dirTable();
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
// The commit step applyDirEvent hands the simulator and the model.
// ------------------------------------------------------------------

// 2 GPUs x 4 GPMs. A line homed at gpm0 has its GPU-1 home at gpm4,
// whose entry tracks GPU 1's GPMs by local index.
constexpr SharerTopology kTopo{2, 4, 1};
constexpr GpmId kSys = 0;
constexpr GpmId kGpuHome = 4;
constexpr GpmId kActor = 5;              // local bit 0b0010
constexpr std::uint32_t kSharers = 0x6;  // gpm5 and gpm6

/** The three entries every row is applied to (those its state names). */
enum class Entry
{
    Absent,
    Empty,   //!< valid, every sharer downgraded away
    Shared,  //!< valid, sharers kSharers
};

/** The commit step of one row on one entry, as the simulator's and the
 *  model's directories execute it. */
struct CommitCase
{
    std::size_t row;
    Entry entry;
    DirCommit commit;
    std::uint32_t gpmBits; //!< post-event bits when the step writes them
};

constexpr CommitCase kCommitCases[] = {
    {0, Entry::Empty, DirCommit::Allocate, 0x2},
    {0, Entry::Shared, DirCommit::Allocate, 0x6},
    {1, Entry::Absent, DirCommit::Allocate, 0x2},
    {2, Entry::Empty, DirCommit::Allocate, 0x2},
    {2, Entry::Shared, DirCommit::RemoveAllocate, 0x2},
    {3, Entry::Empty, DirCommit::Keep, 0},
    {3, Entry::Shared, DirCommit::Remove, 0},
    {4, Entry::Absent, DirCommit::Allocate, 0x2},
    {5, Entry::Absent, DirCommit::Keep, 0},
    {6, Entry::Empty, DirCommit::Keep, 0},
    {6, Entry::Shared, DirCommit::Remove, 0},
    {7, Entry::Empty, DirCommit::WriteBits, 0},
    {7, Entry::Shared, DirCommit::WriteBits, 0x4},
    {8, Entry::Absent, DirCommit::Keep, 0},
    {9, Entry::Empty, DirCommit::Remove, 0},
    {9, Entry::Shared, DirCommit::Remove, 0},
    {10, Entry::Absent, DirCommit::Keep, 0},
};

TEST(VerifyApply, EveryRowOnAbsentEmptyAndSharedEntries)
{
    const TransitionTable t = dirTable();
    std::size_t applied = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const Transition &row = t[i];
        for (Entry entry : {Entry::Absent, Entry::Empty, Entry::Shared}) {
            if ((entry == Entry::Absent) != (row.state == DirState::Invalid))
                continue;
            const CommitCase *c = nullptr;
            for (const CommitCase &k : kCommitCases)
                if (k.row == i && k.entry == entry)
                    c = &k;
            ASSERT_NE(c, nullptr) << rowName(t, i) << " has no case";

            // Replacements, re-fans and untracked stores name no
            // tracked actor; every other event acts for gpm5.
            const bool untracked = row.guard == Guard::WriterUntracked ||
                                   row.event == DirEvent::Replace ||
                                   row.event == DirEvent::InvRecv;
            const GpmId via = untracked ? kInvalidGpm : kActor;
            ASSERT_EQ(findTransition(t, row.state, row.event, !untracked),
                      &row)
                << rowName(t, i);
            DirSnapshot pre;
            pre.present = entry != Entry::Absent;
            pre.gpmBits = entry == Entry::Shared ? kSharers : 0;

            const ApplyOutcome out =
                applyDirEvent(t, kTopo, /*hier=*/true, kGpuHome, via,
                              row.event, pre, kSys, [](GpmId) {});
            EXPECT_EQ(out.commit, c->commit) << rowName(t, i);
            const bool writes = out.commit == DirCommit::WriteBits ||
                                out.commit == DirCommit::Allocate ||
                                out.commit == DirCommit::RemoveAllocate;
            if (writes) {
                EXPECT_EQ(out.gpmBits, c->gpmBits) << rowName(t, i);
            }
            EXPECT_EQ(out.gpuBits, 0u) << rowName(t, i);
            EXPECT_EQ(out.nodeBits, 0u) << rowName(t, i);
            ++applied;
        }
    }
    EXPECT_EQ(applied, std::size(kCommitCases));
}

TEST(VerifyApplyDeathTest, InvRecvOnlyBelowTheSystemHome)
{
    const DirSnapshot pre{true, kSharers, 0, 0};
    auto apply = [&](bool hier, GpmId at) {
        (void)applyDirEvent(dirTable(), kTopo, hier, at, kInvalidGpm,
                            DirEvent::InvRecv, pre, kSys, [](GpmId) {});
    };
    EXPECT_DEATH(apply(/*hier=*/true, kSys), "assertion failed");
    EXPECT_DEATH(apply(/*hier=*/false, kGpuHome), "assertion failed");
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
