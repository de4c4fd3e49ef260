/**
 * @file
 * The declarative protocol specification: Table I of the paper as data.
 *
 * NHCC (Section IV) and HMG (Section V) share one directory automaton
 * with two stable states, and every transition is one row of it:
 *
 *     (line state, incoming event, guard)
 *         -> (next state, directory update, emitted messages)
 *
 * HMG adds one row pair, InvRecv: a home below the system home (a GPU
 * home, or a node home) re-fans an arriving invalidation one tier down.
 * What differs between the homes is only how sharers are encoded (flat
 * GPM bits, or local-GPM + GPU + node bits), which core/sharer_ops.hh
 * decides at apply time.
 *
 * The simulator dispatches its directory maintenance through these rows
 * via verify::applyDirEvent (apply.hh): core/hw_protocol.cc applies one
 * row per event of the shared load/store/atomic walk's directory hook
 * (core/home_chain.cc) and of its own invalidation, replacement and
 * downgrade handlers. The exhaustive model checker (verify/model.cc,
 * tools/hmgcheck) steps the *same* rows, and the same chain step
 * (core/sharer_ops.hh) — so a transition proven safe in the model is
 * the transition the timing simulation performs, and a row edit shows
 * up in both or neither.
 *
 * The row type carries the paper's two simplification claims — "the
 * proposed caching protocols do not require transient states" and "no
 * invalidation acknowledgment messages" (Sections IV-B, V-C): a row's
 * next state is a DirState, which has only the two stable values, and
 * no field can ask for an acknowledgment, so a row applies in one step.
 * checkTable() proves what the type cannot: a consistent row encoding,
 * determinism (no two rows match the same state/event/guard),
 * completeness (every receivable state/event pair has a row) and
 * reachability (every row's anchor state is reachable).
 *
 * A verifier that plants a defect does so in seededTable(), a private
 * copy of the table with one named TableSeed applied, so a test hook
 * never touches the rows the simulator dispatches through.
 */

#ifndef HMG_VERIFY_SPEC_HH
#define HMG_VERIFY_SPEC_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hh"

namespace hmg::verify
{

/** Stable directory-entry states (Table I). Valid == entry present. */
enum class DirState : std::uint8_t
{
    Invalid,
    Valid,
};

/** Protocol events that reach a directory. */
enum class DirEvent : std::uint8_t
{
    LoadMiss,   //!< a remote requester's load is being answered here
    Store,      //!< a write-through (or atomic result) lands here
    Replace,    //!< this entry is displaced by a directory allocation
    InvRecv,    //!< an invalidation for this sector arrives at this node
    Downgrade,  //!< a clean eviction prunes one sharer (optional msg)
    NumEvents,
};

/**
 * Row guard. Stores distinguish whether the acting writer keeps a
 * tracked copy: a regular write-through does (the writer's L2 holds the
 * fresh line), while atomics invalidate even the requester's copy and
 * untracked write-backs travel by update-only messages.
 */
enum class Guard : std::uint8_t
{
    Always,
    WriterTracked,    //!< via is a remote node that retains the line
    WriterUntracked,  //!< via is the home itself, or no node is recorded
};

/** Directory update performed by a row. */
enum class DirUpdate : std::uint8_t
{
    None,
    AddSharer,      //!< record `via` (allocating the entry if absent)
    SetSoleSharer,  //!< clear all sharers, then record `via`
    DropSharer,     //!< clear `via`'s bit (downgrade)
    Clear,          //!< clear all sharers
};

/** Message emissions of a row (enumerated over the pre-update bits). */
enum class EmitMsg : std::uint8_t
{
    None,
    DataResp,    //!< the load flow ships the line back (no dir traffic)
    InvOthers,   //!< invalidate every sharer outside the writer's domain
    InvAll,      //!< invalidate every sharer (replacement)
    RefanGpm,    //!< HMG-only: re-fan the invalidation one tier down
                 //!< (GPM sharers; a node home also re-fans to the
                 //!< GPU homes of its tracked GPUs)
};

/** One declarative transition row. */
struct Transition
{
    DirState state;
    DirEvent event;
    Guard guard;
    DirState next;
    DirUpdate update;
    EmitMsg emit;
    /** Table I row name / paper reference. */
    const char *note;
};

/** A view of transition rows: Table I itself, or a seeded copy. */
using TransitionTable = std::span<const Transition>;

const char *toString(DirState s);
const char *toString(DirEvent e);
const char *toString(Guard g);
const char *toString(DirUpdate u);
const char *toString(EmitMsg e);

/** Table I: the rows every directory of NHCC and HMG applies. */
TransitionTable dirTable();

/** "row i [state,event,guard]": a row's name in checkTable()'s problems. */
std::string rowName(TransitionTable t, std::size_t i);

/** A defect a verifier's test hook plants in its copy of the table. */
enum class TableSeed : std::uint8_t
{
    None,
    /** The store row stops invalidating on a tracked store
     *  (--seed-bad-row). */
    BadStoreRow,
    /** A row shadowed by the Guard::Always load row is appended
     *  (--seed-dead-row). */
    DeadRow,
};

/** A private copy of Table I with `seed` applied. */
std::vector<Transition> seededTable(TableSeed seed);

/** Does guard `g` accept a writer-tracked flag of `tracked`? */
constexpr bool
guardHolds(Guard g, bool tracked)
{
    return g == Guard::Always || (g == Guard::WriterTracked) == tracked;
}

/**
 * The unique row of `t` matching (state, event, tracked-writer), or
 * nullptr. Uniqueness and coverage are enforced by checkTable().
 */
const Transition *findTransition(TransitionTable t, DirState s, DirEvent e,
                                 bool tracked);

/**
 * Statically verify a table: every row's encoding is consistent; no two
 * rows overlap (an overlap names the masked row and the row that masks
 * it); every (state, event) pair a directory can receive is covered;
 * every row is anchored at a state reachable from Invalid. @return
 * human-readable problems (empty when the table is sound).
 */
std::vector<std::string> checkTable(TransitionTable t);

// ------------------------------------------------------------------
// Message-class dependency graph (deadlock freedom, invariant 4).
//
// The transport (src/noc/) applies credit backpressure per hop but
// parks injections in an *unbounded* NIC backlog
// (SystemConfig::nocInjectionBacklogLimit only throttles SM issue), and
// a handler applies its row in one step, so it never blocks consuming
// its message. Deadlock freedom then reduces to: the "handling class X
// may synchronously emit class Y" graph over hop-level message classes
// is acyclic (the cdg lint family proves it, lint/cdg.hh). The classes
// below split MsgType by hierarchy position (requester -> GPU home ->
// system home), because e.g. a ReadReq forwarded gh->h is a
// *different* resource class than the requester's ReadReq.
// ------------------------------------------------------------------

/** One hop-level message class. */
struct MsgClass
{
    const char *name;
};

/** Directed edge: handling `from` may emit `to` in the same event. */
struct MsgDep
{
    std::uint8_t from;
    std::uint8_t to;
    const char *why;
};

const MsgClass *msgClasses(std::size_t &count);
const MsgDep *msgDeps(std::size_t &count);

} // namespace hmg::verify

#endif // HMG_VERIFY_SPEC_HH
