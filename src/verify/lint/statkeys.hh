/**
 * @file
 * The stats-key registry lint.
 *
 * Every simulator statistic is a dot-separated string assembled at a
 * `StatRecorder::record()` call site — "noc.gpu0.gpm1.egress.bytes",
 * "pdes.windows", "noc.fault.total.drops". Nothing ties those string
 * literals together: two components can silently record into the same
 * key (StatRecorder *accumulates* on name collision, by design, so the
 * result is a corrupted sum rather than an error), and a top-level
 * namespace like `noc.*` that one subsystem composes dynamically can
 * be intruded on by a hard-coded absolute key anywhere else.
 *
 * This analyzer reconstructs the registry statically from the source:
 *
 *  - K1 duplicate-key: the same key literal recorded twice within one
 *    function body (same `prefix + ".bytes"` suffix twice, or the same
 *    absolute literal twice) — almost always a copy/paste double-count,
 *    since intentional aggregation reuses a prefix across *different*
 *    call sites, not the same one;
 *  - K2 root-collision: an absolute key whose first segment is a root
 *    namespace some subsystem composes under (the literal prefixes
 *    handed to `reportStats(r, "...")` at the top level — e.g. "noc",
 *    "pdes") recorded from *outside* that delegation. Such a key lands
 *    inside a namespace whose contents are generated elsewhere and
 *    will collide with (or shadow) the composed keys.
 *
 * A `statkey-ok:` comment on the line or up to 4 lines above
 * suppresses either check.
 */

#ifndef HMG_VERIFY_LINT_STATKEYS_HH
#define HMG_VERIFY_LINT_STATKEYS_HH

#include <string>

#include "verify/lint/lint.hh"

namespace hmg::verify::lint
{

struct StatKeysOptions
{
    /** Repository root; `root`/src is scanned. */
    std::string root = ".";
};

/** Run the stats-key checks, appending findings to `report`. */
void analyzeStatKeys(const StatKeysOptions &opts, LintReport &report);

} // namespace hmg::verify::lint

#endif // HMG_VERIFY_LINT_STATKEYS_HH
