/**
 * @file
 * The one dispatcher that turns a declarative Transition row (spec.hh)
 * into effect: message emissions enumerated from the *pre-update*
 * sharer bits (via core/sharer_ops.hh), plus the commit step that
 * brings the directory entry to its post-event state.
 *
 * Both consumers step through here and only execute the commit step:
 *   - core/hw_protocol.cc adapts its Directory entries to DirSnapshot
 *     and commits to the live directory, for the events the shared
 *     walk's directory hook raises (core/home_chain.cc: sharer
 *     recording, write-through and atomic fans) and for its own
 *     invalidation, re-fan, replacement and downgrade handlers;
 *   - verify/model.cc adapts its packed model state and commits to the
 *     successor state vector.
 * Neither re-implements a transition or its commit, so hmgcheck
 * verifies the rows the timing simulation actually executes.
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

/** How the caller brings its directory entry to the post-event state. */
enum class DirCommit : std::uint8_t
{
    Keep,           //!< leave the entry, or its absence, as it is
    Remove,         //!< drop the entry
    WriteBits,      //!< overwrite the present entry's sharer bits
    Allocate,       //!< find or allocate the entry (a directory
                    //!< allocation may displace a victim), write bits
    RemoveAllocate, //!< drop the entry, then Allocate
};

/** Result of applying a row: what the entry must become. */
struct ApplyOutcome
{
    DirCommit commit = DirCommit::Keep;
    /** Post-update sharer bits (written by WriteBits and Allocate). */
    std::uint32_t gpmBits = 0;
    std::uint32_t gpuBits = 0;
    std::uint32_t nodeBits = 0;
};

/**
 * Look up and apply the unique table row for (entry state, event,
 * writer-tracked guard).
 *
 * @param t        the transition table (dirTable(), or a seeded copy)
 * @param topo     sharer topology view
 * @param hier     hierarchical (HMG) sharer encoding?
 * @param h        the home node processing the event
 * @param via      the acting node (requester/writer/evictor), or
 *                 kInvalidGpm when no node retains a tracked copy
 * @param ev       the directory event; InvRecv only at a home below
 *                 the system home of a hierarchical protocol
 * @param pre      entry state before the event
 * @param sys      the system home of the entry's sector, from which
 *                 the GPU and node homes a fan addresses follow
 * @param emitInv  called once per invalidation target, in the
 *                 deterministic order of forEachInvTarget /
 *                 forEachRefanTarget (ascending GPM bits, then
 *                 ascending GPU bits, then ascending node bits)
 * @return the commit step and the post-update sharer bits
 */
template <typename EmitInvFn>
inline ApplyOutcome
applyDirEvent(TransitionTable t, const SharerTopology &topo, bool hier,
              GpmId h, GpmId via, DirEvent ev, const DirSnapshot &pre,
              GpmId sys, EmitInvFn &&emitInv)
{
    // Only a home with a tier below it re-fans: the system home never
    // receives an invalidation for a sector it homes (every fan
    // excludes it), and a flat protocol has no tier below its home.
    hmg_assert(ev != DirEvent::InvRecv || (hier && h != sys));
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

    const bool sharers = pre.gpmBits || pre.gpuBits || pre.nodeBits;
    ApplyOutcome out;
    if (row->next == DirState::Invalid) {
        // An entry whose sharers were all downgraded away carries no
        // obligations, so a store leaves it in place; a processed
        // re-fan always drops its entry.
        if (pre.present && (sharers || ev == DirEvent::InvRecv))
            out.commit = DirCommit::Remove;
        return out;
    }
    switch (row->update) {
      case DirUpdate::None:
        break;
      case DirUpdate::AddSharer:
        out.commit = DirCommit::Allocate;
        if (pre.present) {
            out.gpmBits = pre.gpmBits;
            out.gpuBits = pre.gpuBits;
            out.nodeBits = pre.nodeBits;
        }
        recordSharerBits(topo, hier, h, via, out.gpmBits, out.gpuBits,
                         out.nodeBits);
        break;
      case DirUpdate::SetSoleSharer:
        // A tracked entry is re-allocated, not rewritten in place.
        out.commit = pre.present && sharers ? DirCommit::RemoveAllocate
                                            : DirCommit::Allocate;
        recordSharerBits(topo, hier, h, via, out.gpmBits, out.gpuBits,
                         out.nodeBits);
        break;
      case DirUpdate::DropSharer:
        // checkTable() admits DropSharer only on a present entry.
        out.commit = DirCommit::WriteBits;
        out.gpmBits = pre.gpmBits;
        out.gpuBits = pre.gpuBits;
        out.nodeBits = pre.nodeBits;
        dropSharerBits(topo, hier, h, via, out.gpmBits, out.gpuBits,
                       out.nodeBits);
        break;
      case DirUpdate::Clear:
        if (pre.present)
            out.commit = DirCommit::WriteBits; // every bit cleared
        break;
    }
    return out;
}

} // namespace hmg::verify

#endif // HMG_VERIFY_APPLY_HH
