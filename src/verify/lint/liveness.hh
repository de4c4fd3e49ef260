/**
 * @file
 * Family (d): protocol liveness + the composed deadlock proof.
 *
 * HMG's deadlock story is compositional: the protocol layer is
 * non-blocking (no transient states, no invalidation acks — Sections
 * IV-B/V-C), so the transport's Duato argument (family (b), cdg.hh)
 * carries the whole system. Family (d) turns that composition from an
 * assertion into a derivation over the declarative tables:
 *
 *  - L1 wait-for structure: every row that would enter a transient
 *    state (`transientNext`) or collect acknowledgments (`needsAck`)
 *    induces a *stall* — the directory holds its entry, and its GPM
 *    ingress head, until a completion message arrives. The analysis
 *    derives what each stall awaits from the row's emission and which
 *    hop-level message classes trigger the row (role x event).
 *  - L2 livelock freedom: every transient state must reach a stable
 *    state with no transient-only cycle. In this transport each GPM
 *    has a single ingress and no dedicated completion channel, so a
 *    stalled handler's awaited completion must traverse the very
 *    ingress the stall holds: the wait-for graph closes the minimal
 *    cycle transient -> completion-class -> transient, and the row is
 *    reported with that counterexample. (Tables with zero stalls make
 *    this pass vacuous — which is exactly the paper's claim, and the
 *    stats record it: liveness.transient_rows == 0.)
 *  - L3 composed proof: the protocol stall edges are handed to
 *    analyzeComposedCdg (cdg.hh), which rebuilds the transport CDG
 *    with the stalled handlers' emission edges kept as blocking and
 *    proves the *composed* protocol∘transport graph acyclic for the
 *    concrete topology instance. With zero stalls the composed graph
 *    is the pure transport CDG — the compositional argument, derived.
 *
 * This is the mandatory gate a new protocol table must pass before
 * hmgcheck's exploration stage: a table that introduces a transient or
 * an ack fails here, in microseconds, with a named cycle — or ships
 * alongside a transport that grants the completion a dedicated escape
 * path.
 *
 * `seedLivelock` plants the canonical defect (TableSeed::Livelock):
 * the GPU home's re-fan row marked transient, holding its ingress
 * while awaiting re-fan completions that must arrive through that same
 * ingress.
 */

#ifndef HMG_VERIFY_LINT_LIVENESS_HH
#define HMG_VERIFY_LINT_LIVENESS_HH

#include "verify/lint/lint.hh"

namespace hmg::verify::lint
{

/** Run the liveness + composed-deadlock analysis over `opts`' shape. */
void analyzeLiveness(const LintOptions &opts, LintReport &report);

} // namespace hmg::verify::lint

#endif // HMG_VERIFY_LINT_LIVENESS_HH
