#include "verify/spec.hh"

#include <cstdio>

namespace hmg::verify
{

namespace
{

// ------------------------------------------------------------------
// Table I as data. Row order is documentation order; lookup is by
// (state, event, guard) and checkTable() proves the match is unique.
// ------------------------------------------------------------------

// Rows shared by every home role. The sharer-bit *encoding* (flat GPM
// bits vs. local-GPM + GPU bits) is the role's business, delegated to
// sharer_ops.hh at apply time; the transitions themselves are the same
// two-stable-state automaton of Table I.
#define HMG_COMMON_HOME_ROWS                                              \
    {DirState::Valid, DirEvent::LoadMiss, Guard::Always,                  \
     DirState::Valid, DirUpdate::AddSharer, EmitMsg::DataResp,            \
     "Read: add the requester to the sharer set"},                        \
    {DirState::Invalid, DirEvent::LoadMiss, Guard::Always,                \
     DirState::Valid, DirUpdate::AddSharer, EmitMsg::DataResp,            \
     "Read miss: allocate an entry, record the requester"},               \
    {DirState::Valid, DirEvent::Store, Guard::WriterTracked,              \
     DirState::Valid, DirUpdate::SetSoleSharer, EmitMsg::InvOthers,       \
     "Store: invalidate stale sharers in the background; the writer "     \
     "becomes the sole sharer (no acks collected — Section IV-B)"},       \
    {DirState::Valid, DirEvent::Store, Guard::WriterUntracked,            \
     DirState::Invalid, DirUpdate::Clear, EmitMsg::InvOthers,             \
     "Store by the home / atomic / update-only write-back: invalidate "   \
     "every sharer, entry returns to Invalid"},                           \
    {DirState::Invalid, DirEvent::Store, Guard::WriterTracked,            \
     DirState::Valid, DirUpdate::AddSharer, EmitMsg::None,                \
     "Store miss: track the writer's fresh copy"},                        \
    {DirState::Invalid, DirEvent::Store, Guard::WriterUntracked,          \
     DirState::Invalid, DirUpdate::None, EmitMsg::None,                   \
     "Store miss, untracked writer: nothing to track"},                   \
    {DirState::Valid, DirEvent::Replace, Guard::Always,                   \
     DirState::Invalid, DirUpdate::Clear, EmitMsg::InvAll,                \
     "Replace dir entry: invalidate every sharer of the victim"},         \
    {DirState::Valid, DirEvent::Downgrade, Guard::Always,                 \
     DirState::Valid, DirUpdate::DropSharer, EmitMsg::None,               \
     "Clean-eviction downgrade: prune one sharer (Section IV-B)"},        \
    {DirState::Invalid, DirEvent::Downgrade, Guard::Always,               \
     DirState::Invalid, DirUpdate::None, EmitMsg::None,                   \
     "Downgrade for an untracked sector: stale, ignore"}

constexpr Transition kFlatHomeRows[] = {
    HMG_COMMON_HOME_ROWS,
};

constexpr Transition kSysHomeRows[] = {
    HMG_COMMON_HOME_ROWS,
};

constexpr Transition kGpuHomeRows[] = {
    HMG_COMMON_HOME_ROWS,
    // The single transition HMG adds over NHCC (Table I, last row): a
    // GPU home receiving a system-level invalidation re-fans it to the
    // GPM sharers it tracks, then drops its entry, in one step like
    // every row: no acknowledgment is collected, and the release marker
    // rounds drain the re-fanned wave (Section V-C).
    {DirState::Valid, DirEvent::InvRecv, Guard::Always,
     DirState::Invalid, DirUpdate::Clear, EmitMsg::RefanGpm,
     "HMG-only: GPU home re-fans the invalidation to its GPM sharers"},
    {DirState::Invalid, DirEvent::InvRecv, Guard::Always,
     DirState::Invalid, DirUpdate::None, EmitMsg::None,
     "Invalidation with no tracked local sharers: drop"},
};

constexpr Transition kNodeHomeRows[] = {
    HMG_COMMON_HOME_ROWS,
    // A node home is the same automaton one tier up: a system-level
    // invalidation arriving here re-fans to the local GPM sharers it
    // tracks *and* to the GPU homes of its tracked same-node GPUs,
    // which re-fan again (the three-wave chain Section V-C's release
    // marker rounds drain).
    {DirState::Valid, DirEvent::InvRecv, Guard::Always,
     DirState::Invalid, DirUpdate::Clear, EmitMsg::RefanGpm,
     "HMG multi-node: node home re-fans the invalidation one tier down"},
    {DirState::Invalid, DirEvent::InvRecv, Guard::Always,
     DirState::Invalid, DirUpdate::None, EmitMsg::None,
     "Invalidation with no tracked node sharers: drop"},
};

#undef HMG_COMMON_HOME_ROWS

constexpr TransitionTable kTables[] = {
    {Role::FlatHome, "nhcc-home", kFlatHomeRows,
     sizeof(kFlatHomeRows) / sizeof(kFlatHomeRows[0])},
    {Role::GpuHome, "hmg-gpu-home", kGpuHomeRows,
     sizeof(kGpuHomeRows) / sizeof(kGpuHomeRows[0])},
    {Role::NodeHome, "hmg-node-home", kNodeHomeRows,
     sizeof(kNodeHomeRows) / sizeof(kNodeHomeRows[0])},
    {Role::SysHome, "hmg-sys-home", kSysHomeRows,
     sizeof(kSysHomeRows) / sizeof(kSysHomeRows[0])},
};

} // namespace

bool
receivable(Role role, DirState s, DirEvent e)
{
    switch (e) {
      case DirEvent::LoadMiss:
      case DirEvent::Store:
      case DirEvent::Downgrade:
        return true;
      case DirEvent::Replace:
        // Replacement is only ever applied to a displaced valid victim.
        return s == DirState::Valid;
      case DirEvent::InvRecv:
        // Only the intermediate homes (GPU home, node home) own re-fan
        // state; elsewhere an arriving invalidation is pure cache-side
        // work.
        return role == Role::GpuHome || role == Role::NodeHome;
      case DirEvent::NumEvents:
        break;
    }
    return false;
}

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

const char *
toString(Role r)
{
    switch (r) {
      case Role::FlatHome: return "FlatHome";
      case Role::GpuHome:  return "GpuHome";
      case Role::NodeHome: return "NodeHome";
      case Role::SysHome:  return "SysHome";
      case Role::NumRoles: break;
    }
    return "?";
}

const TransitionTable &
tableFor(Role role)
{
    return kTables[static_cast<std::size_t>(role)];
}

std::string
rowName(const TransitionTable &t, const Transition &r)
{
    std::string s = t.name;
    s += '[';
    s += toString(r.state);
    s += ',';
    s += toString(r.event);
    s += ',';
    s += toString(r.guard);
    s += ']';
    return s;
}

TableSet::TableSet(TableSeed seed)
{
    for (std::size_t r = 0; r < kNumRoles; ++r)
        rows_[r].assign(kTables[r].rows, kTables[r].rows + kTables[r].numRows);
    auto &gpuHome = rows_[static_cast<std::size_t>(Role::GpuHome)];
    switch (seed) {
      case TableSeed::None:
        break;
      case TableSeed::BadStoreRow:
        // Stale sharers survive a write, which exploration must surface
        // as a sharer-tracking or litmus counterexample.
        for (Role role : {Role::FlatHome, Role::SysHome})
            for (Transition &row : rows_[static_cast<std::size_t>(role)])
                if (row.state == DirState::Valid &&
                    row.event == DirEvent::Store &&
                    row.guard == Guard::WriterTracked)
                    row.emit = EmitMsg::None;
        break;
      case TableSeed::DeadRow:
        // Shadowed by the (Valid, LoadMiss, Always) row above it:
        // findTransition can never reach this row.
        gpuHome.push_back({DirState::Valid, DirEvent::LoadMiss,
                           Guard::WriterTracked, DirState::Valid,
                           DirUpdate::SetSoleSharer, EmitMsg::None,
                           "seeded dead row (--seed-dead-row test hook)"});
        break;
    }
    for (std::size_t r = 0; r < kNumRoles; ++r)
        tables_[r] = {kTables[r].role, kTables[r].name, rows_[r].data(),
                      rows_[r].size()};
}

const Transition *
findTransition(const TransitionTable &t, DirState s, DirEvent e,
               bool tracked)
{
    for (std::size_t i = 0; i < t.numRows; ++i) {
        const Transition &r = t.rows[i];
        if (r.state == s && r.event == e && guardHolds(r.guard, tracked))
            return &r;
    }
    return nullptr;
}

std::vector<std::string>
checkTable(const TransitionTable &t)
{
    std::vector<std::string> problems;
    auto complain = [&](const std::string &what) {
        problems.push_back(std::string(t.name) + ": " + what);
    };

    // Internal consistency of the row encoding. (Ack- and
    // transient-freedom need no check: the row type cannot express
    // either.)
    for (std::size_t i = 0; i < t.numRows; ++i) {
        const Transition &r = t.rows[i];
        if ((r.update == DirUpdate::AddSharer ||
             r.update == DirUpdate::SetSoleSharer) &&
            r.next != DirState::Valid)
            complain(rowName(t, r) + " records a sharer yet leaves the "
                     "entry Invalid");
        if (r.update == DirUpdate::DropSharer &&
            r.state != DirState::Valid)
            complain(rowName(t, r) + " drops a sharer from an absent "
                     "entry");
        if (r.emit == EmitMsg::InvAll && r.event != DirEvent::Replace)
            complain(rowName(t, r) + " blanket-invalidates outside a "
                     "replacement");
        if (r.emit == EmitMsg::RefanGpm && t.role != Role::GpuHome &&
            t.role != Role::NodeHome)
            complain(rowName(t, r) + " re-fans at a role with no home "
                     "tier below it");
        if (r.event == DirEvent::Store && r.guard == Guard::Always)
            complain(rowName(t, r) + " ignores the writer-tracking "
                     "guard stores require");
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
                for (std::size_t i = 0; i < t.numRows; ++i) {
                    const Transition &r = t.rows[i];
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
                        what += (k == 1 ? ": row " : "; row ") +
                                std::to_string(matches[k]) +
                                " " + rowName(t, t.rows[matches[k]]) +
                                " is masked by row " +
                                std::to_string(first) + " " +
                                rowName(t, t.rows[first]);
                    complain(what);
                }
                if (matches.empty() && receivable(t.role, s, ev))
                    complain(std::string("incomplete: no row for ") + buf);
            }
        }
    }
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
