#include "verify/lint/table_lint.hh"

#include <array>
#include <cstddef>
#include <string>

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

// ------------------------------------------------------------------
// Individual passes.
// ------------------------------------------------------------------

/** Fold checkTable()'s encoding/determinism/completeness pass. */
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
        passReachability(t, report);
    }
    passProtocolDiff(tables, report);
    report.stat("table.tables", count);
    report.stat("table.rows", rows);
}

} // namespace hmg::verify::lint
