/**
 * @file
 * Exhaustive model check of the link-level retry sublayer (DESIGN.md
 * §11, hmgcheck stage 3).
 *
 * The transport's fault handling (noc/port.cc + fault/plan.cc) is a
 * go-back-N ARQ: the sender window is the port input queue, the replay
 * buffer resends from the last acked sequence number on timeout, and
 * the receiver accepts frames strictly in order. Before the protocol
 * engines are allowed to *rely* on "transient faults cost time, never
 * messages", this checker explores every interleaving of a small
 * abstract instance — N messages, window W, a lossy FIFO frame channel
 * and a lossy ack channel with a bounded loss budget L — and verifies:
 *
 *  - no-duplicate-delivery: the receiver never delivers a sequence
 *    number twice (retransmissions of already-delivered frames are
 *    filtered by the in-order acceptance rule);
 *  - in-order delivery: sequence i is delivered before i+1;
 *  - delivery liveness: every terminal state (no transition enabled)
 *    has all N messages delivered and acked. With a finite loss budget
 *    and the timeout enabled only when both channels are empty (i.e.
 *    fairness: a timeout cannot starve in-flight traffic forever),
 *    termination of every run follows from the budget's monotone
 *    decrease — so "all terminals complete" is exactly delivery
 *    liveness.
 *
 * The `seedAcceptAnySeq` hook removes the receiver's in-order filter —
 * the classic ARQ bug where a retransmitted frame is re-delivered. The
 * checker must then produce a duplicate-delivery counterexample, which
 * is how tests/retry_model_test.cc proves the checker has teeth.
 */

#ifndef HMG_VERIFY_RETRY_MODEL_HH
#define HMG_VERIFY_RETRY_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

namespace hmg::verify
{

/** Largest loss budget: the budget is one byte of the packed state. */
constexpr std::uint32_t kMaxLossBudget = 255;

/** Parameters of the abstract retry-sublayer instance. */
struct RetryMckConfig
{
    std::uint32_t numMsgs = 3;    //!< sequence numbers 0..N-1
    std::uint32_t window = 2;     //!< max unacked frames outstanding
    /** Total frame+ack losses explored, 0..kMaxLossBudget. */
    std::uint32_t lossBudget = 3;
    /** Bug hook: receiver accepts any sequence number (no in-order
     *  filter). The explorer must find duplicate delivery. */
    bool seedAcceptAnySeq = false;
};

/** Outcome of one exhaustive exploration. */
struct RetryMckResult
{
    bool ok = true;
    std::uint64_t statesExplored = 0;
    std::uint64_t transitionsTaken = 0;
    std::uint64_t finalStates = 0; //!< terminal (quiescent) states
    std::string violation;         //!< first invariant failure
    std::vector<std::string> trace; //!< action path to the violation
};

/** Breadth-first exploration of every loss/retransmit interleaving. */
RetryMckResult exploreRetry(const RetryMckConfig &cfg);

} // namespace hmg::verify

#endif // HMG_VERIFY_RETRY_MODEL_HH
