#include "verify/lint/liveness.hh"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "verify/lint/cdg.hh"
#include "verify/spec.hh"

namespace hmg::verify::lint
{

namespace
{

/** msgClasses() index of the class named `name` (asserted to exist). */
std::uint8_t
classIndex(const char *name)
{
    std::size_t count = 0;
    const MsgClass *classes = msgClasses(count);
    for (std::size_t i = 0; i < count; ++i)
        if (std::string(classes[i].name) == name)
            return static_cast<std::uint8_t>(i);
    return 0xff; // unreachable for the names used below
}

/**
 * Hop-level message classes whose handler executes rows of
 * (role, event): the ingress traffic that *triggers* the row. This is
 * the role-aware projection of the class split documented alongside
 * msgClasses() — e.g. a LoadMiss at the system home arrives as a
 * forwarded read (ReadReq.fwd / ReadReq.nfwd), never as the
 * requester's ReadReq.req.
 */
std::vector<std::uint8_t>
triggerClasses(Role role, DirEvent event)
{
    auto ids = [](std::vector<const char *> names) {
        std::vector<std::uint8_t> out;
        for (const char *n : names)
            out.push_back(classIndex(n));
        return out;
    };
    switch (event) {
      case DirEvent::LoadMiss:
      case DirEvent::Replace: // replacement fires inside an allocation
        switch (role) {
          case Role::FlatHome:
          case Role::GpuHome:  return ids({"ReadReq.req"});
          case Role::NodeHome: return ids({"ReadReq.fwd"});
          case Role::SysHome:  return ids({"ReadReq.fwd",
                                           "ReadReq.nfwd"});
          case Role::NumRoles: break;
        }
        break;
      case DirEvent::Store:
        switch (role) {
          case Role::FlatHome:
          case Role::GpuHome:  return ids({"WriteThrough.req",
                                           "AtomicReq"});
          case Role::NodeHome: return ids({"WriteThrough.fwd"});
          case Role::SysHome:  return ids({"WriteThrough.fwd",
                                           "WriteThrough.nfwd",
                                           "AtomicReq"});
          case Role::NumRoles: break;
        }
        break;
      case DirEvent::InvRecv:
        switch (role) {
          case Role::GpuHome:  return ids({"Inv.fan", "Inv.nrefan"});
          case Role::NodeHome: return ids({"Inv.fan"});
          default: break;
        }
        break;
      case DirEvent::Downgrade:
        return ids({"Downgrade"});
      case DirEvent::NumEvents:
        break;
    }
    return {};
}

/**
 * What a stalled row would be waiting for, as the completion's arrival
 * at the stalling home. Derived from the row's emission: a stall only
 * resolves when the wave it forked reports back.
 */
std::string
awaitsOf(const Transition &r)
{
    switch (r.emit) {
      case EmitMsg::RefanGpm:
        return "re-fan completion (acks for the Inv.refan wave it "
               "forked)";
      case EmitMsg::InvOthers:
      case EmitMsg::InvAll:
        return "invalidation acknowledgments from the fanned sharers";
      case EmitMsg::DataResp:
        return "fill completion at the requester";
      case EmitMsg::None:
        break;
    }
    return "";
}

/** One stalling row plus its derived wait-for structure. */
struct Stall
{
    const TransitionTable *table;
    std::size_t row;
    std::string name;    //!< rowName() label
    std::string awaits;  //!< completion description ("" = none exists)
    std::vector<std::uint8_t> triggers; //!< ingress classes firing it
};

Finding
livenessFinding(const Stall &s, const std::string &check,
                std::string message)
{
    Finding f;
    f.family = "liveness";
    f.check = check;
    f.file = kTablesFile;
    f.table = s.table->name;
    f.row = static_cast<int>(s.row);
    f.message = std::move(message);
    return f;
}

/**
 * L2: every stall is statically a livelock in this transport. Each GPM
 * has a single ingress queue and no dedicated completion channel
 * (spec.hh's class graph has no ack class flowing back to a home), so
 * the completion a stalled handler awaits must be delivered through
 * the very ingress whose head the stall occupies: the wait-for graph
 * closes the minimal cycle transient -> awaited completion ->
 * transient, of length 2.
 */
void
reportStall(const Stall &s, bool fromAck, LintReport &report)
{
    std::size_t count = 0;
    const MsgClass *classes = msgClasses(count);

    if (s.awaits.empty()) {
        Finding f = livenessFinding(
            s, "transient-no-resolution",
            "row enters a transient state but emits nothing: no "
            "completion exists that could ever return it to a stable "
            "state");
        f.counterexample.push_back(s.name +
                                   " stalls with no pending wave");
        f.counterexample.push_back(
            "no message class resolves the transient: the entry is "
            "wedged permanently");
        report.add(std::move(f));
        return;
    }

    std::string via;
    for (std::uint8_t c : s.triggers) {
        if (!via.empty())
            via += ", ";
        via += classes[c].name;
    }

    Finding f = livenessFinding(
        s, fromAck ? "ack-stall" : "livelock",
        std::string(fromAck ? "ack-collecting row forms a"
                            : "transient-state row forms a") +
            " livelock cycle of length 2: the stall holds the GPM "
            "ingress its own completion must arrive through");
    f.counterexample.push_back(s.name + " stalls awaiting " + s.awaits);
    f.counterexample.push_back(
        "the " + s.awaits +
        " must enter through the GPM ingress the stalled handler (" +
        "triggered by " + via +
        ") holds: delivery is queued behind the stall itself");
    f.counterexample.push_back(
        "cycle closes: the stall never resolves (no dedicated "
        "completion channel exists to bypass the held ingress)");
    report.add(std::move(f));
}

} // namespace

void
analyzeLiveness(const LintOptions &opts, LintReport &report)
{
    const TableSet tables(opts.seedLivelock ? TableSeed::Livelock
                                            : TableSeed::None);

    // L1: derive the stall set — rows whose next state is transient or
    // that would collect acknowledgments. On the shipped tables this
    // set is empty; the stats record the proof obligations discharged.
    std::vector<Stall> stalls;
    std::uint64_t transientRows = 0, ackRows = 0, stableRows = 0;
    for (const TransitionTable &t : tables) {
        for (std::size_t i = 0; i < t.numRows; ++i) {
            const Transition &r = t.rows[i];
            if (!r.transientNext && !r.needsAck) {
                ++stableRows;
                continue;
            }
            if (r.transientNext)
                ++transientRows;
            if (r.needsAck)
                ++ackRows;
            Stall s;
            s.table = &t;
            s.row = i;
            s.name = rowName(t, r);
            s.awaits = awaitsOf(r);
            s.triggers = triggerClasses(t.role, r.event);
            stalls.push_back(std::move(s));
        }
    }

    // L2: prove transient-only-cycle freedom. In this transport every
    // stall is its own minimal cycle (see reportStall); a zero-stall
    // table set discharges the obligation vacuously — which is exactly
    // the paper's "no transient states, no acks" claim, now checked.
    std::uint64_t waitEdges = 0;
    std::vector<ProtocolStall> protoStalls;
    for (const Stall &s : stalls) {
        const Transition &r = s.table->rows[s.row];
        reportStall(s, !r.transientNext && r.needsAck, report);
        for (std::uint8_t c : s.triggers) {
            ++waitEdges;
            protoStalls.push_back({c, s.name, s.awaits});
        }
    }
    report.stat("liveness.transient_rows", transientRows);
    report.stat("liveness.ack_rows", ackRows);
    report.stat("liveness.stable_rows", stableRows);
    report.stat("liveness.wait_edges", waitEdges);

    // L3: the composed protocol-transport proof. With zero stalls the
    // composed graph is the pure transport CDG and HMG's compositional
    // argument holds by derivation; with stalls, the invalidated
    // escape edges re-enter the cycle check and any loop is printed.
    analyzeComposedCdg(opts, protoStalls, report);
}

} // namespace hmg::verify::lint
