#include "verify/lint/table_lint.hh"

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "verify/spec.hh"

namespace hmg::verify::lint
{

namespace
{

std::string
rowLabel(const TransitionTable &t, std::size_t i)
{
    const Transition &r = t.rows[i];
    std::string s = "(";
    s += toString(r.state);
    s += ", ";
    s += toString(r.event);
    s += ", ";
    s += toString(r.guard);
    s += ") -> (";
    s += toString(r.next);
    s += ", ";
    s += toString(r.update);
    s += ", ";
    s += toString(r.emit);
    s += ")";
    return s;
}

Finding
tableFinding(const TransitionTable &t, std::size_t row,
             const std::string &check, std::string message)
{
    Finding f;
    f.family = "table";
    f.check = check;
    f.file = kTablesFile;
    f.table = t.name;
    f.row = static_cast<int>(row);
    f.message = std::move(message);
    return f;
}

/** Does guard `a` accept every tracked-writer value guard `b` does? */
bool
guardCovers(Guard a, Guard b)
{
    return a == Guard::Always || a == b;
}

// ------------------------------------------------------------------
// Individual passes.
// ------------------------------------------------------------------

/** Fold checkTable()'s ack/transient/determinism/completeness pass. */
void
passCore(const TransitionTable &t, LintReport &report)
{
    const std::string prefix = std::string(t.name) + ": ";
    for (const std::string &p : checkTable(t)) {
        // checkTable's strings already lead with the table name, which
        // the finding carries structurally — drop the repetition.
        Finding f = tableFinding(
            t, -1, "core",
            p.rfind(prefix, 0) == 0 ? p.substr(prefix.size()) : p);
        f.row = -1;
        report.add(std::move(f));
    }
}

/** Dead rows: shadowed by an earlier row with a covering guard. */
void
passDeadRows(const TransitionTable &t, LintReport &report)
{
    for (std::size_t j = 1; j < t.numRows; ++j) {
        const Transition &rj = t.rows[j];
        for (std::size_t i = 0; i < j; ++i) {
            const Transition &ri = t.rows[i];
            if (ri.state != rj.state || ri.event != rj.event ||
                !guardCovers(ri.guard, rj.guard))
                continue;
            Finding f = tableFinding(
                t, j, "dead-row",
                "row can never fire: every (state, event, tracked) "
                "query it matches is answered first by row " +
                    std::to_string(i) + " (guard " +
                    toString(ri.guard) + " covers " +
                    toString(rj.guard) + ")");
            f.counterexample.push_back("dead row " + std::to_string(j) +
                                       ": " + rowLabel(t, j) + "  \"" +
                                       rj.note + "\"");
            f.counterexample.push_back(
                "masked by row " + std::to_string(i) + ": " +
                rowLabel(t, i) + "  \"" + ri.note + "\"");
            report.add(std::move(f));
            break; // one masking row is counterexample enough
        }
    }
}

/** Unreachable rows: anchored at a state no event path reaches. */
void
passReachability(const TransitionTable &t, LintReport &report)
{
    constexpr std::size_t kNumStates = 2;
    std::array<bool, kNumStates> reach = {};
    reach[static_cast<std::size_t>(DirState::Invalid)] = true; // initial
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t i = 0; i < t.numRows; ++i) {
            const Transition &r = t.rows[i];
            if (!reach[static_cast<std::size_t>(r.state)])
                continue;
            if (!receivable(t.role, r.state, r.event))
                continue;
            auto &dst = reach[static_cast<std::size_t>(r.next)];
            if (!dst) {
                dst = true;
                changed = true;
            }
        }
    }
    for (std::size_t i = 0; i < t.numRows; ++i) {
        const Transition &r = t.rows[i];
        if (reach[static_cast<std::size_t>(r.state)])
            continue;
        report.add(tableFinding(
            t, i, "unreachable-row",
            std::string("row is anchored at ") + toString(r.state) +
                ", which no event path reaches from the initial "
                "Invalid state"));
    }
}

/**
 * Emitted-message budget: every message a row emits must land in a
 * consumer. Most emissions terminate at cache-side handlers that are
 * not table-driven (declared sinks below); the table-to-table edges
 * are HMG invalidations descending the home chain (system home ->
 * node home -> GPU home), each of which the lower home must be able
 * to receive as InvRecv in *both* states — delete those rows and
 * this pass catches it without any state exploration.
 */
void
passEmitBudget(const TableSet &tables, LintReport &report)
{
    for (const TransitionTable &t : tables) {
        for (std::size_t i = 0; i < t.numRows; ++i) {
            const Transition &r = t.rows[i];
            const char *sink = nullptr;
            std::vector<Role> consumerRoles;
            DirEvent consumerEvent = DirEvent::NumEvents;
            switch (r.emit) {
              case EmitMsg::None:
                continue;
              case EmitMsg::DataResp:
                sink = "requester MSHR fill handler";
                break;
              case EmitMsg::RefanGpm:
                if (t.role == Role::NodeHome) {
                    // A node home's re-fan addresses both its local
                    // GPM sharers (cache-side sink) and the GPU homes
                    // of its tracked GPUs, which re-fan once more.
                    consumerRoles = {Role::GpuHome};
                    consumerEvent = DirEvent::InvRecv;
                } else {
                    sink = "GPM L2 invalidation handler";
                }
                break;
              case EmitMsg::InvOthers:
              case EmitMsg::InvAll:
                if (t.role == Role::SysHome) {
                    // HMG: system-home invalidations reach remote GPU
                    // homes (same node) and node homes (other nodes),
                    // which must re-fan via InvRecv rows.
                    consumerRoles = {Role::GpuHome, Role::NodeHome};
                    consumerEvent = DirEvent::InvRecv;
                } else {
                    sink = "GPM L2 invalidation handler";
                }
                break;
            }
            if (sink)
                continue; // terminal: consumed outside the tables
            for (Role role : consumerRoles) {
                const TransitionTable &consumer = tables[role];
                for (DirState s : {DirState::Invalid, DirState::Valid}) {
                    for (bool tracked : {false, true}) {
                        if (findTransition(consumer, s, consumerEvent,
                                           tracked))
                            continue;
                        Finding f = tableFinding(
                            t, i, "missing-consumer",
                            std::string("row emits ") + toString(r.emit) +
                                " toward " + consumer.name +
                                ", which has no row consuming (" +
                                toString(s) + ", " +
                                toString(consumerEvent) +
                                ", tracked=" + (tracked ? "1" : "0") +
                                ")");
                        f.counterexample.push_back(
                            "emitting row: " + rowLabel(t, i) + "  \"" +
                            r.note + "\"");
                        report.add(std::move(f));
                    }
                }
            }
        }
    }
}

/**
 * Cross-protocol diff: on the (state, event, tracked) space both roles
 * can receive, NHCC and HMG answer with the same outcome today —
 * Table I is one automaton with role-specific sharer encodings. A
 * divergence introduced on one side only is legal protocol design but
 * must be loud, not silent.
 */
void
passProtocolDiff(const TableSet &tables, LintReport &report)
{
    for (const TransitionTable *pa = tables.begin(); pa != tables.end();
         ++pa) {
        for (const TransitionTable *pb = pa + 1; pb != tables.end(); ++pb) {
            const TransitionTable &ta = *pa;
            const TransitionTable &tb = *pb;
            for (DirState s : {DirState::Invalid, DirState::Valid}) {
                for (std::size_t e = 0;
                     e < static_cast<std::size_t>(DirEvent::NumEvents);
                     ++e) {
                    const auto ev = static_cast<DirEvent>(e);
                    if (!receivable(ta.role, s, ev) ||
                        !receivable(tb.role, s, ev))
                        continue;
                    for (bool tracked : {false, true}) {
                        const Transition *ra =
                            findTransition(ta, s, ev, tracked);
                        const Transition *rb =
                            findTransition(tb, s, ev, tracked);
                        if (!ra || !rb)
                            continue; // completeness pass owns this
                        if (ra->next == rb->next &&
                            ra->update == rb->update &&
                            ra->emit == rb->emit)
                            continue;
                        Finding f = tableFinding(
                            ta, ra - ta.rows, "protocol-divergence",
                            std::string("same query (") + toString(s) +
                                ", " + toString(ev) + ", tracked=" +
                                (tracked ? "1" : "0") +
                                ") answered differently by " + tb.name);
                        f.counterexample.push_back(
                            std::string(ta.name) + ": " +
                            rowLabel(ta, ra - ta.rows));
                        f.counterexample.push_back(
                            std::string(tb.name) + ": " +
                            rowLabel(tb, rb - tb.rows));
                        report.add(std::move(f));
                    }
                }
            }
        }
    }
}

} // namespace

void
analyzeTables(const LintOptions &opts, LintReport &report)
{
    const TableSet tables(opts.seedDeadRow ? TableSeed::DeadRow
                                           : TableSeed::None);
    std::uint64_t count = 0, rows = 0;
    for (const TransitionTable &t : tables) {
        ++count;
        rows += t.numRows;
        passCore(t, report);
        passDeadRows(t, report);
        passReachability(t, report);
    }
    passEmitBudget(tables, report);
    passProtocolDiff(tables, report);
    report.stat("table.tables", count);
    report.stat("table.rows", rows);
}

} // namespace hmg::verify::lint
