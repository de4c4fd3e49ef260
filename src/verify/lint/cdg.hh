/**
 * @file
 * Family (b): static message-class deadlock freedom over the transport.
 *
 * First the protocol layer: the "handling class X may emit class Y"
 * graph over the hop-level classes (msgDeps(), spec.hh) must be
 * acyclic.
 *
 * Then the transport: the Duato-style channel-dependency graph of the
 * NoC, drawn from the fabric (common/fabric.hh) of the machine in
 * LintOptions::cfg. It has one node per physical credit pool — every
 * fabric link, under its link name and with the pool size the
 * simulator gives it, plus each GPM's NIC backlog — and one edge
 * wherever a message *holding* space in one pool may *wait* for space
 * in another:
 *
 *   - route progression: a queued head waits for the next hop's credit
 *     while occupying its own slot — every hop Fabric::next() takes
 *     over all (src, dst) pairs, each once, labeled with the hop-level
 *     message classes (spec.hh) that traverse it;
 *   - handler emission: consuming class X at a GPM ingress may emit
 *     class Y (msgDeps()), which enters at the local NIC.
 *
 * The transport's deadlock-freedom argument is that the NIC backlog is
 * UNBOUNDED and every handler consumes unconditionally — a handler
 * applies its table row in one step, because the row type has no
 * transient state to wait in and no acknowledgment to collect — so
 * emission edges terminate in a pool that can always accept. They are
 * recorded as "escape" edges and cut from the cycle check. What
 * remains must be acyclic; if it is not, the minimal dependency cycle
 * (links + the message classes inducing each edge) is emitted as a
 * counterexample.
 *
 * `seedCdgCycle` models the one-line bug that would re-introduce
 * deadlock — a bounded, blocking injection queue — by keeping the
 * emission edges in the graph. The analysis must then find and print
 * the cycle. This check is O(links), independent of protocol state
 * space, which is what keeps it tractable for the 3-level hierarchies
 * where hmgcheck's exhaustive exploration explodes.
 */

#ifndef HMG_VERIFY_LINT_CDG_HH
#define HMG_VERIFY_LINT_CDG_HH

#include <span>

#include "verify/lint/lint.hh"
#include "verify/spec.hh"

namespace hmg::verify::lint
{

/**
 * Prove the message-class graph and then the channel-dependency graph
 * over the shape in `opts` acyclic; `opts.seedCdgCycle` keeps the
 * emission edges blocking.
 */
void analyzeCdg(const LintOptions &opts, LintReport &report);

/**
 * The message-class check over `deps` (analyzeCdg passes msgDeps()):
 * one cdg/msg-class-cycle finding per dependency that closes a cycle,
 * with that closing edge as the counterexample. Dependencies naming a
 * class outside msgClasses() are skipped; the graph build reports them.
 */
void analyzeMsgDeps(std::span<const MsgDep> deps, LintReport &report);

} // namespace hmg::verify::lint

#endif // HMG_VERIFY_LINT_CDG_HH
