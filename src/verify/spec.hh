/**
 * @file
 * The declarative protocol specification: Table I of the paper as data.
 *
 * Every directory/line state transition of the two hardware protocols
 * (NHCC, Section IV; HMG, Section V) is one row of a per-role
 * TransitionTable:
 *
 *     (line state, incoming event, guard)
 *         -> (next state, directory update, emitted messages)
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
 * checkTable() proves what the type cannot: determinism (no two rows
 * match the same state/event/guard), completeness (every receivable
 * state/event pair has a row) and a consistent row encoding.
 *
 * A verifier that plants a defect does so in a TableSet, a private copy
 * of every table with one named TableSeed applied, so a test hook never
 * touches the rows the simulator dispatches through.
 */

#ifndef HMG_VERIFY_SPEC_HH
#define HMG_VERIFY_SPEC_HH

#include <cstddef>
#include <cstdint>
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

/** Which directory a table describes. */
enum class Role : std::uint8_t
{
    FlatHome,  //!< NHCC's single home (flat GPM sharer bits)
    GpuHome,   //!< HMG per-GPU home (local GPM bits only)
    NodeHome,  //!< HMG per-node home (GPM bits + local GPU bits)
    SysHome,   //!< HMG system home (GPM + GPU + node bits)
    NumRoles,
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

/** A per-role table plus identification. */
struct TransitionTable
{
    Role role;
    const char *name;
    const Transition *rows;
    std::size_t numRows;
};

const char *toString(DirState s);
const char *toString(DirEvent e);
const char *toString(Guard g);
const char *toString(DirUpdate u);
const char *toString(EmitMsg e);
const char *toString(Role r);

/** The table governing directories of `role`. */
const TransitionTable &tableFor(Role role);

/** "table[state,event,guard]": a row's name in findings and problems. */
std::string rowName(const TransitionTable &t, const Transition &r);

/** A defect a verifier's test hook plants in its TableSet. */
enum class TableSeed : std::uint8_t
{
    None,
    /** The top home of each protocol (NHCC's flat home, HMG's system
     *  home) stops invalidating on a tracked store (--seed-bad-row). */
    BadStoreRow,
    /** The GPU home gains a row a Guard::Always row shadows
     *  (--seed-dead-row). */
    DeadRow,
};

/**
 * A private copy of every table, indexed by Role, with one seed
 * applied. Row storage is owned and never moves, so the set is not
 * copyable.
 */
class TableSet
{
  public:
    explicit TableSet(TableSeed seed = TableSeed::None);
    TableSet(const TableSet &) = delete;
    TableSet &operator=(const TableSet &) = delete;

    const TransitionTable &
    operator[](Role role) const
    {
        return tables_[static_cast<std::size_t>(role)];
    }
    const TransitionTable *begin() const { return tables_; }
    const TransitionTable *end() const { return tables_ + kNumRoles; }

  private:
    static constexpr std::size_t kNumRoles =
        static_cast<std::size_t>(Role::NumRoles);
    std::vector<Transition> rows_[kNumRoles];
    TransitionTable tables_[kNumRoles] = {};
};

/** Does guard `g` accept a writer-tracked flag of `tracked`? */
constexpr bool
guardHolds(Guard g, bool tracked)
{
    return g == Guard::Always || (g == Guard::WriterTracked) == tracked;
}

/**
 * Which events a directory of `role` can actually receive in state `s`.
 * Shared by checkTable()'s completeness pass and the table lint family
 * so "covered" means the same thing everywhere.
 */
bool receivable(Role role, DirState s, DirEvent e);

/**
 * The unique row of `t` matching (state, event, tracked-writer), or
 * nullptr. Uniqueness and coverage are enforced by checkTable().
 */
const Transition *findTransition(const TransitionTable &t, DirState s,
                                 DirEvent e, bool tracked);

/**
 * Statically verify one table: every row's encoding is consistent; no
 * two rows overlap (an overlap names the masked row and the row that
 * masks it); every (state, event) pair the role can receive is
 * covered. @return human-readable problems (empty when the table is
 * sound).
 */
std::vector<std::string> checkTable(const TransitionTable &t);

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
