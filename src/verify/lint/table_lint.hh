/**
 * @file
 * Family (a): structural analysis of the declarative transition tables.
 *
 * Folds checkTable() into the static report as the `core` check —
 * consistent row encoding, determinism (an overlap names the masked
 * row and the row that masks it) and completeness — and adds what core
 * cannot see from one table alone:
 *
 *  - unreachable rows: rows anchored at a DirState no event path can
 *    reach from the initial state (Invalid);
 *  - cross-protocol divergence: NHCC and HMG rows answering the same
 *    (state, event, tracked-writer) query with different outcomes are
 *    flagged, so the shared-automaton claim of Table I cannot silently
 *    rot when one table is edited.
 *
 * A dead row (shadowed by an earlier row whose guard covers it) and a
 * missing invalidation consumer (an intermediate home without an
 * InvRecv row) are both core findings: the first makes two rows match
 * one query, the second leaves a receivable query without a row.
 * `seedDeadRow` analyzes a TableSet seeded with TableSeed::DeadRow,
 * which appends a shadowed row to the hmg-gpu-home table: core must
 * report it, naming the masking row.
 */

#ifndef HMG_VERIFY_LINT_TABLE_LINT_HH
#define HMG_VERIFY_LINT_TABLE_LINT_HH

#include "verify/lint/lint.hh"

namespace hmg::verify::lint
{

/** Run every spec-table check, appending findings to `report`. */
void analyzeTables(const LintOptions &opts, LintReport &report);

} // namespace hmg::verify::lint

#endif // HMG_VERIFY_LINT_TABLE_LINT_HH
