/**
 * @file
 * Family (a): structural analysis of the declarative transition tables.
 *
 * Extends checkTable()'s determinism/completeness pass into a full
 * structural audit of src/verify/tables.cc:
 *
 *  - dead rows: a row shadowed by an earlier row whose guard covers it
 *    (findTransition matches first, so the later row can never fire);
 *  - unreachable rows: rows anchored at a DirState no event path can
 *    reach from the initial state (Invalid);
 *  - emitted-message budget: every message a row emits must have a
 *    consumer — either a terminal cache-side handler or, for HMG
 *    system-home invalidations, an InvRecv row at the GPU home — so a
 *    deleted consumer row is caught before the model checker even runs;
 *  - cross-protocol divergence: NHCC and HMG rows answering the same
 *    (state, event, tracked-writer) query with different outcomes are
 *    flagged, so the shared-automaton claim of Table I cannot silently
 *    rot when one table is edited;
 *  - everything checkTable() already proves (ack-/transient-freedom,
 *    determinism, completeness), folded into the same report.
 *
 * `seedDeadRow` analyzes a TableSet seeded with TableSeed::DeadRow,
 * which appends a shadowed row to the hmg-gpu-home table: the analysis
 * must produce a row-attributed counterexample naming the masking row.
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
