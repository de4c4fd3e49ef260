#include "verify/spec.hh"

#include <algorithm>
#include <cstdio>
#include <iterator>

namespace hmg::verify
{

namespace
{

// ------------------------------------------------------------------
// Table I as data. Row order is documentation order; lookup is by
// (state, event, guard) and checkTable() proves the match is unique.
// The sharer-bit *encoding* (flat GPM bits vs. local-GPM + GPU + node
// bits) is each home's business, delegated to sharer_ops.hh at apply
// time; the transitions are one two-stable-state automaton.
// ------------------------------------------------------------------

constexpr Transition kRows[] = {
    {DirState::Valid, DirEvent::LoadMiss, Guard::Always,
     DirState::Valid, DirUpdate::AddSharer, EmitMsg::DataResp,
     "Read: add the requester to the sharer set"},
    {DirState::Invalid, DirEvent::LoadMiss, Guard::Always,
     DirState::Valid, DirUpdate::AddSharer, EmitMsg::DataResp,
     "Read miss: allocate an entry, record the requester"},
    {DirState::Valid, DirEvent::Store, Guard::WriterTracked,
     DirState::Valid, DirUpdate::SetSoleSharer, EmitMsg::InvOthers,
     "Store: invalidate stale sharers in the background; the writer "
     "becomes the sole sharer (no acks collected — Section IV-B)"},
    {DirState::Valid, DirEvent::Store, Guard::WriterUntracked,
     DirState::Invalid, DirUpdate::Clear, EmitMsg::InvOthers,
     "Store by the home / atomic / update-only write-back: invalidate "
     "every sharer, entry returns to Invalid"},
    {DirState::Invalid, DirEvent::Store, Guard::WriterTracked,
     DirState::Valid, DirUpdate::AddSharer, EmitMsg::None,
     "Store miss: track the writer's fresh copy"},
    {DirState::Invalid, DirEvent::Store, Guard::WriterUntracked,
     DirState::Invalid, DirUpdate::None, EmitMsg::None,
     "Store miss, untracked writer: nothing to track"},
    {DirState::Valid, DirEvent::Replace, Guard::Always,
     DirState::Invalid, DirUpdate::Clear, EmitMsg::InvAll,
     "Replace dir entry: invalidate every sharer of the victim"},
    {DirState::Valid, DirEvent::Downgrade, Guard::Always,
     DirState::Valid, DirUpdate::DropSharer, EmitMsg::None,
     "Clean-eviction downgrade: prune one sharer (Section IV-B)"},
    {DirState::Invalid, DirEvent::Downgrade, Guard::Always,
     DirState::Invalid, DirUpdate::None, EmitMsg::None,
     "Downgrade for an untracked sector: stale, ignore"},
    // The single transition HMG adds over NHCC (Table I, last row): a
    // home below the system home receiving an invalidation re-fans it
    // one tier down — a GPU home to its GPM sharers, a node home also
    // to the GPU homes of its tracked GPUs, which re-fan again — then
    // drops its entry, in one step like every row: no acknowledgment is
    // collected, and the release marker rounds drain the re-fanned
    // waves (Section V-C). applyDirEvent admits it nowhere else.
    {DirState::Valid, DirEvent::InvRecv, Guard::Always,
     DirState::Invalid, DirUpdate::Clear, EmitMsg::RefanGpm,
     "HMG-only: an intermediate home re-fans the invalidation one tier "
     "down"},
    {DirState::Invalid, DirEvent::InvRecv, Guard::Always,
     DirState::Invalid, DirUpdate::None, EmitMsg::None,
     "Invalidation with no tracked sharers below: drop"},
};

/**
 * Which events a directory can actually receive in state `s`: the
 * query space of checkTable()'s completeness and reachability passes.
 * Replacement is only ever applied to a displaced valid victim; every
 * other event arrives in both states.
 */
bool
receivable(DirState s, DirEvent e)
{
    return e != DirEvent::Replace || s == DirState::Valid;
}

} // namespace

const char *
toString(DirState s)
{
    return s == DirState::Valid ? "Valid" : "Invalid";
}

const char *
toString(DirEvent e)
{
    switch (e) {
      case DirEvent::LoadMiss:  return "LoadMiss";
      case DirEvent::Store:     return "Store";
      case DirEvent::Replace:   return "Replace";
      case DirEvent::InvRecv:   return "InvRecv";
      case DirEvent::Downgrade: return "Downgrade";
      case DirEvent::NumEvents: break;
    }
    return "?";
}

const char *
toString(Guard g)
{
    switch (g) {
      case Guard::Always:          return "Always";
      case Guard::WriterTracked:   return "WriterTracked";
      case Guard::WriterUntracked: return "WriterUntracked";
    }
    return "?";
}

const char *
toString(DirUpdate u)
{
    switch (u) {
      case DirUpdate::None:          return "None";
      case DirUpdate::AddSharer:     return "AddSharer";
      case DirUpdate::SetSoleSharer: return "SetSoleSharer";
      case DirUpdate::DropSharer:    return "DropSharer";
      case DirUpdate::Clear:         return "Clear";
    }
    return "?";
}

const char *
toString(EmitMsg e)
{
    switch (e) {
      case EmitMsg::None:      return "None";
      case EmitMsg::DataResp:  return "DataResp";
      case EmitMsg::InvOthers: return "InvOthers";
      case EmitMsg::InvAll:    return "InvAll";
      case EmitMsg::RefanGpm:  return "RefanGpm";
    }
    return "?";
}

TransitionTable
dirTable()
{
    return kRows;
}

std::string
rowName(TransitionTable t, std::size_t i)
{
    const Transition &r = t[i];
    return "row " + std::to_string(i) + " [" + toString(r.state) + "," +
           toString(r.event) + "," + toString(r.guard) + "]";
}

std::vector<Transition>
seededTable(TableSeed seed)
{
    std::vector<Transition> rows(std::begin(kRows), std::end(kRows));
    switch (seed) {
      case TableSeed::None:
        break;
      case TableSeed::BadStoreRow:
        // Stale sharers survive a write, which exploration must surface
        // as a sharer-tracking or litmus counterexample.
        for (Transition &row : rows)
            if (row.state == DirState::Valid &&
                row.event == DirEvent::Store &&
                row.guard == Guard::WriterTracked)
                row.emit = EmitMsg::None;
        break;
      case TableSeed::DeadRow:
        // Shadowed by the (Valid, LoadMiss, Always) row 0: findTransition
        // can never reach this row.
        rows.push_back({DirState::Valid, DirEvent::LoadMiss,
                        Guard::WriterTracked, DirState::Valid,
                        DirUpdate::SetSoleSharer, EmitMsg::None,
                        "seeded dead row (--seed-dead-row test hook)"});
        break;
    }
    return rows;
}

const Transition *
findTransition(TransitionTable t, DirState s, DirEvent e, bool tracked)
{
    for (const Transition &r : t)
        if (r.state == s && r.event == e && guardHolds(r.guard, tracked))
            return &r;
    return nullptr;
}

std::vector<std::string>
checkTable(TransitionTable t)
{
    std::vector<std::string> problems;

    // Internal consistency of the row encoding. (Ack- and
    // transient-freedom need no check: the row type cannot express
    // either.)
    for (std::size_t i = 0; i < t.size(); ++i) {
        const Transition &r = t[i];
        auto complain = [&](const char *what) {
            problems.push_back(rowName(t, i) + " " + what);
        };
        if ((r.update == DirUpdate::AddSharer ||
             r.update == DirUpdate::SetSoleSharer) &&
            r.next != DirState::Valid)
            complain("records a sharer yet leaves the entry Invalid");
        if (r.update == DirUpdate::DropSharer &&
            r.state != DirState::Valid)
            complain("drops a sharer from an absent entry");
        if (r.emit == EmitMsg::InvAll && r.event != DirEvent::Replace)
            complain("blanket-invalidates outside a replacement");
        if (r.emit == EmitMsg::RefanGpm && r.event != DirEvent::InvRecv)
            complain("re-fans an event other than an arriving "
                     "invalidation");
        if (r.event == DirEvent::Store && r.guard == Guard::Always)
            complain("ignores the writer-tracking guard stores require");
    }

    // Determinism + completeness over the receivable event space.
    // findTransition answers with the first match, so every later
    // match is a row that can never fire for this query: name it and
    // the row that masks it.
    for (DirState s : {DirState::Invalid, DirState::Valid}) {
        for (std::size_t e = 0;
             e < static_cast<std::size_t>(DirEvent::NumEvents); ++e) {
            const auto ev = static_cast<DirEvent>(e);
            for (bool tracked : {false, true}) {
                std::vector<std::size_t> matches;
                for (std::size_t i = 0; i < t.size(); ++i) {
                    const Transition &r = t[i];
                    if (r.state == s && r.event == ev &&
                        guardHolds(r.guard, tracked))
                        matches.push_back(i);
                }
                char buf[96];
                std::snprintf(buf, sizeof(buf), "(%s, %s, tracked=%d)",
                              toString(s), toString(ev), tracked ? 1 : 0);
                if (matches.size() > 1) {
                    const std::size_t first = matches.front();
                    std::string what = "ambiguous: " +
                                       std::to_string(matches.size()) +
                                       " rows match " + buf;
                    for (std::size_t k = 1; k < matches.size(); ++k)
                        what += (k == 1 ? ": " : "; ") +
                                rowName(t, matches[k]) +
                                " is masked by " + rowName(t, first);
                    problems.push_back(what);
                }
                if (matches.empty() && receivable(s, ev))
                    problems.push_back(std::string("incomplete: no row "
                                                   "for ") + buf);
            }
        }
    }

    // Reachability. Invalid is the initial state, so with two states
    // Valid is reachable exactly when a receivable Invalid-anchored row
    // leads to it; otherwise no Valid-anchored row can ever fire.
    const bool validReached =
        std::any_of(t.begin(), t.end(), [](const Transition &r) {
            return r.state == DirState::Invalid &&
                   r.next == DirState::Valid && receivable(r.state, r.event);
        });
    if (!validReached)
        for (std::size_t i = 0; i < t.size(); ++i)
            if (t[i].state == DirState::Valid)
                problems.push_back("unreachable: " + rowName(t, i) +
                                   " is anchored at Valid, which no "
                                   "event path reaches from the initial "
                                   "Invalid state");
    return problems;
}

// ------------------------------------------------------------------
// Message-class dependency graph.
// ------------------------------------------------------------------

namespace
{

enum MsgClassId : std::uint8_t
{
    kReadReqReq,     // requester -> first home (gh under HMG, else h)
    kReadReqFwd,     // GPU home -> system home
    kReadRespSys,    // system home -> GPU home
    kReadRespHome,   // serving home -> requester
    kWriteThroughReq,// writer -> first home
    kWriteThroughFwd,// GPU home -> system home
    kInvFan,         // home -> sharer L2 / remote GPU home
    kInvRefan,       // GPU home -> its GPM sharers
    kAtomicReq,      // requester -> scope home
    kAtomicResp,     // scope home -> requester
    kRelMarkerFan,   // releaser -> every targeted L2
    kRelMarkerRelay, // relay GPM -> its GPU's other GPMs
    kRelAck,         // marker target -> releaser / relay
    kDowngrade,      // evictor -> home
    // Node tier (multi-node HMG): each cross-node hop of the home
    // chain requester -> GPU home -> node home -> system home is its
    // own resource class, exactly as the gh -> h hop already was.
    kReadReqNfwd,    // node home -> system home
    kReadRespNode,   // node home -> GPU home (relay down)
    kWriteThroughNfwd, // node home -> system home
    kInvRefanNode,   // node home -> its tracked GPU homes
    kNumMsgClasses
};

constexpr MsgClass kMsgClasses[] = {
    {"ReadReq.req"},      {"ReadReq.fwd"},
    {"ReadResp.sys"},     {"ReadResp.home"},
    {"WriteThrough.req"}, {"WriteThrough.fwd"},
    {"Inv.fan"},          {"Inv.refan"},
    {"AtomicReq"},        {"AtomicResp"},
    {"RelMarker.fan"},    {"RelMarker.relay"},
    {"RelAck"},           {"Downgrade"},
    {"ReadReq.nfwd"},     {"ReadResp.node"},
    {"WriteThrough.nfwd"}, {"Inv.nrefan"},
};
static_assert(sizeof(kMsgClasses) / sizeof(kMsgClasses[0]) ==
              kNumMsgClasses);

constexpr MsgDep kMsgDeps[] = {
    {kReadReqReq, kReadReqFwd, "GPU-home miss consults the system home"},
    {kReadReqReq, kReadRespHome, "hit at the first home"},
    {kReadReqReq, kInvFan, "directory replacement on sharer allocate"},
    {kReadReqFwd, kReadRespSys, "system home answers"},
    {kReadReqFwd, kInvFan, "directory replacement on sharer allocate"},
    {kReadRespSys, kReadRespHome, "GPU home relays the line down"},
    {kReadRespSys, kAtomicResp, "GPU-home atomic performs after fetch"},
    {kReadRespSys, kWriteThroughFwd, "atomic result writes through"},
    {kReadRespSys, kInvFan, "atomic invalidates local sharers"},
    {kWriteThroughReq, kInvFan, "store invalidates stale sharers"},
    {kWriteThroughReq, kWriteThroughFwd, "GPU home forwards to system"},
    {kWriteThroughFwd, kInvFan, "system home invalidates stale sharers"},
    {kInvFan, kInvRefan, "HMG GPU home re-fans to its GPM sharers"},
    {kAtomicReq, kReadReqFwd, "GPU home fetches the line first"},
    {kAtomicReq, kAtomicResp, "pre-op value returns"},
    {kAtomicReq, kWriteThroughFwd, "atomic result writes through"},
    {kAtomicReq, kInvFan, "atomic invalidates sharers"},
    {kRelMarkerFan, kRelAck, "target acks after its inv ledger drains"},
    {kRelMarkerFan, kRelMarkerRelay, "relay fans within its GPU"},
    {kRelMarkerRelay, kRelAck, "relayed target acks"},
    // Node tier: the same up-the-chain / down-the-chain edges one hop
    // higher. Every new edge points strictly along the home chain, so
    // the graph stays a DAG by construction — and the checker proves it.
    {kReadReqFwd, kReadReqNfwd, "node-home miss consults the system home"},
    {kReadReqFwd, kReadRespNode, "hit at the node home"},
    {kReadReqNfwd, kReadRespSys, "system home answers"},
    {kReadReqNfwd, kInvFan, "directory replacement on sharer allocate"},
    {kReadRespSys, kReadRespNode, "node home relays the line down"},
    {kReadRespNode, kReadRespHome, "GPU home relays the line down"},
    {kReadRespNode, kAtomicResp, "GPU-home atomic performs after fetch"},
    {kReadRespNode, kWriteThroughFwd, "atomic result writes through"},
    {kReadRespNode, kInvFan, "atomic invalidates local sharers"},
    {kWriteThroughFwd, kWriteThroughNfwd,
     "node home forwards to the system home"},
    {kWriteThroughNfwd, kInvFan, "system home invalidates stale sharers"},
    {kInvFan, kInvRefanNode, "node home re-fans toward its GPU homes"},
    {kInvRefanNode, kInvRefan, "GPU home re-fans to its GPM sharers"},
};

} // namespace

const MsgClass *
msgClasses(std::size_t &count)
{
    count = kNumMsgClasses;
    return kMsgClasses;
}

const MsgDep *
msgDeps(std::size_t &count)
{
    count = sizeof(kMsgDeps) / sizeof(kMsgDeps[0]);
    return kMsgDeps;
}

} // namespace hmg::verify
