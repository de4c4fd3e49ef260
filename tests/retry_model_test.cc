/**
 * @file
 * Tests of the retry-sublayer model checker (src/verify/retry_model.*).
 *
 * The clean go-back-N instance must verify — delivery liveness and
 * exactly-once in-order delivery over lossy channels — and the seeded
 * bug (receiver accepts any sequence number) must be *caught*, proving
 * the checker can actually distinguish a broken ARQ from a sound one.
 */

#include <gtest/gtest.h>

#include "verify/retry_model.hh"

namespace hmg::verify
{
namespace
{

TEST(RetryModel, DefaultInstanceVerifies)
{
    const MckResult res = exploreRetry(RetryMckConfig{});
    EXPECT_TRUE(res.ok) << res.violation;
    EXPECT_GT(res.statesExplored, 0u);
    EXPECT_GT(res.transitionsTaken, res.statesExplored);
    // Liveness is meaningful only if quiescent states are reachable.
    EXPECT_GT(res.finalStates, 0u);
    EXPECT_TRUE(res.violation.empty());
}

TEST(RetryModel, LargerInstanceVerifies)
{
    RetryMckConfig cfg;
    cfg.numMsgs = 4;
    cfg.window = 3;
    cfg.lossBudget = 4;
    const MckResult res = exploreRetry(cfg);
    EXPECT_TRUE(res.ok) << res.violation;
    EXPECT_GT(res.finalStates, 0u);
    // Sanity: the bigger instance explores strictly more states.
    const MckResult small = exploreRetry(RetryMckConfig{});
    EXPECT_GT(res.statesExplored, small.statesExplored);
}

TEST(RetryModel, LosslessInstanceVerifies)
{
    RetryMckConfig cfg;
    cfg.lossBudget = 0; // no losses: plain windowed FIFO delivery
    const MckResult res = exploreRetry(cfg);
    EXPECT_TRUE(res.ok) << res.violation;
    EXPECT_GT(res.finalStates, 0u);
}

TEST(RetryModel, SeededBugIsCaughtWithTrace)
{
    RetryMckConfig cfg;
    cfg.seedAcceptAnySeq = true;
    const MckResult res = exploreRetry(cfg);
    ASSERT_FALSE(res.ok);
    // Without the in-order filter a retransmission is either
    // re-delivered (duplicate) or delivered ahead of a lost
    // predecessor (out-of-order); the checker names whichever it
    // reaches first and hands back an actionable action path.
    EXPECT_TRUE(res.violation.find("duplicate") != std::string::npos ||
                res.violation.find("out-of-order") != std::string::npos)
        << res.violation;
    EXPECT_FALSE(res.trace.empty());
}

TEST(RetryModel, DeterministicAcrossRuns)
{
    const MckResult a = exploreRetry(RetryMckConfig{});
    const MckResult b = exploreRetry(RetryMckConfig{});
    EXPECT_EQ(a.statesExplored, b.statesExplored);
    EXPECT_EQ(a.transitionsTaken, b.transitionsTaken);
    EXPECT_EQ(a.finalStates, b.finalStates);
}

} // namespace
} // namespace hmg::verify
