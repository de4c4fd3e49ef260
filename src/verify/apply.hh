/**
 * @file
 * The one dispatcher that turns a declarative Transition row (spec.hh)
 * into effect: message emissions enumerated from the *pre-update*
 * sharer bits (via core/sharer_ops.hh) plus the post-update entry
 * state handed back to the caller to commit.
 *
 * Both consumers step through here:
 *   - core/hw_protocol.cc adapts its Directory entries to DirSnapshot
 *     and commits the outcome to the live directory, for the events the
 *     shared walk's directory hook raises (core/home_chain.cc: sharer
 *     recording, write-through and atomic fans) and for its own
 *     invalidation, re-fan, replacement and downgrade handlers;
 *   - verify/model.cc adapts its packed model state and commits to the
 *     successor state vector.
 * Neither re-implements a transition, so hmgcheck verifies the rows the
 * timing simulation actually executes.
 */

#ifndef HMG_VERIFY_APPLY_HH
#define HMG_VERIFY_APPLY_HH

#include <cstdint>

#include "common/log.hh"
#include "core/sharer_ops.hh"
#include "verify/spec.hh"

namespace hmg::verify
{

/** Pre-event view of one directory entry (absence == Invalid). */
struct DirSnapshot
{
    bool present = false;
    std::uint32_t gpmBits = 0;
    std::uint32_t gpuBits = 0;
    std::uint32_t nodeBits = 0;
};

/** Result of applying a row: what the entry must become. */
struct ApplyOutcome
{
    const Transition *row = nullptr;
    /** Entry exists after the event (row->next == Valid). */
    bool keepEntry = false;
    /** Post-update sharer bits (meaningful when keepEntry). */
    std::uint32_t gpmBits = 0;
    std::uint32_t gpuBits = 0;
    std::uint32_t nodeBits = 0;
};

/**
 * Look up and apply the unique table row for (entry state, event,
 * writer-tracked guard).
 *
 * @param t        the role's transition table (tableFor)
 * @param topo     sharer topology view
 * @param hier     hierarchical (HMG) sharer encoding?
 * @param h        the home node processing the event
 * @param via      the acting node (requester/writer/evictor), or
 *                 kInvalidGpm when no node retains a tracked copy
 * @param ev       the directory event
 * @param pre      entry state before the event
 * @param sys      the system home of the entry's sector, from which
 *                 the GPU and node homes a fan addresses follow
 * @param emitInv  called once per invalidation target, in the
 *                 deterministic order of forEachInvTarget /
 *                 forEachRefanTarget (ascending GPM bits, then
 *                 ascending GPU bits, then ascending node bits)
 * @return the row applied plus the post-update entry state; the caller
 *         commits it (remove when !keepEntry, else write the bits).
 */
template <typename EmitInvFn>
inline ApplyOutcome
applyDirEvent(const TransitionTable &t, const SharerTopology &topo,
              bool hier, GpmId h, GpmId via, DirEvent ev,
              const DirSnapshot &pre, GpmId sys, EmitInvFn &&emitInv)
{
    const bool tracked = via != kInvalidGpm && via != h;
    const DirState state = pre.present ? DirState::Valid
                                       : DirState::Invalid;
    const Transition *row = findTransition(t, state, ev, tracked);
    hmg_assert(row != nullptr); // checkTable() proves coverage

    // Emissions first, computed from the pre-update bits: the entry
    // snapshot taken when the event began decides who gets invalidated.
    switch (row->emit) {
      case EmitMsg::None:
      case EmitMsg::DataResp:
        // Data responses ride the load flow, not the directory.
        break;
      case EmitMsg::InvOthers:
        forEachInvTarget(topo, hier, h, tracked ? via : kInvalidGpm,
                         pre.gpmBits, pre.gpuBits, pre.nodeBits, sys,
                         emitInv);
        break;
      case EmitMsg::InvAll:
        forEachInvTarget(topo, hier, h, kInvalidGpm, pre.gpmBits,
                         pre.gpuBits, pre.nodeBits, sys, emitInv);
        break;
      case EmitMsg::RefanGpm:
        forEachRefanTarget(topo, h, pre.gpmBits, pre.gpuBits, sys,
                           emitInv);
        break;
    }

    ApplyOutcome out;
    out.row = row;
    out.keepEntry = row->next == DirState::Valid;
    switch (row->update) {
      case DirUpdate::None:
        out.gpmBits = pre.gpmBits;
        out.gpuBits = pre.gpuBits;
        out.nodeBits = pre.nodeBits;
        break;
      case DirUpdate::AddSharer:
        out.gpmBits = pre.present ? pre.gpmBits : 0;
        out.gpuBits = pre.present ? pre.gpuBits : 0;
        out.nodeBits = pre.present ? pre.nodeBits : 0;
        recordSharerBits(topo, hier, h, via, out.gpmBits, out.gpuBits,
                         out.nodeBits);
        break;
      case DirUpdate::SetSoleSharer:
        recordSharerBits(topo, hier, h, via, out.gpmBits, out.gpuBits,
                         out.nodeBits);
        break;
      case DirUpdate::DropSharer:
        out.gpmBits = pre.gpmBits;
        out.gpuBits = pre.gpuBits;
        out.nodeBits = pre.nodeBits;
        dropSharerBits(topo, hier, h, via, out.gpmBits, out.gpuBits,
                       out.nodeBits);
        break;
      case DirUpdate::Clear:
        break;
    }
    return out;
}

} // namespace hmg::verify

#endif // HMG_VERIFY_APPLY_HH
