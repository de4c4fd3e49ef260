/**
 * @file
 * Family (a): structural analysis of the declarative transition table.
 *
 * Folds checkTable() into the static report as the `core` check, one
 * finding per problem: a consistent row encoding, determinism (an
 * overlap names the masked row and the row that masks it),
 * completeness and reachability (a row anchored at a state no event
 * path reaches from Invalid is named unreachable).
 *
 * A dead row (shadowed by an earlier row whose guard covers it) and a
 * missing invalidation consumer (no InvRecv row) are both core
 * findings: the first makes two rows match one query, the second
 * leaves a receivable query without a row. `seedDeadRow` analyzes a
 * copy seeded with TableSeed::DeadRow, which appends a shadowed row
 * 11 behind the table's 11 rows: core must report it, naming row 0 as
 * its masker.
 */

#ifndef HMG_VERIFY_LINT_TABLE_LINT_HH
#define HMG_VERIFY_LINT_TABLE_LINT_HH

#include "verify/lint/lint.hh"

namespace hmg::verify::lint
{

/** Run the table check, appending findings to `report`. */
void analyzeTables(const LintOptions &opts, LintReport &report);

} // namespace hmg::verify::lint

#endif // HMG_VERIFY_LINT_TABLE_LINT_HH
