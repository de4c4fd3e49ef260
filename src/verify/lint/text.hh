/**
 * @file
 * Lexical helpers for hmglint's source-scanning family (statkeys).
 *
 * The first step is a view of each source line with comments / string
 * / char literals blanked out (so pattern text inside literals never
 * matches), and the inverse view holding only comment text (so
 * `statkey-ok:` annotations are honored exactly where a human wrote
 * them and nowhere else). Both views preserve line/column geometry, so
 * a column in one view is the same column in the raw text.
 */

#ifndef HMG_VERIFY_LINT_TEXT_HH
#define HMG_VERIFY_LINT_TEXT_HH

#include <string>
#include <vector>

namespace hmg::verify::lint
{

/** Is `c` an identifier character ([A-Za-z0-9_])? */
bool identChar(char c);

/**
 * Does this comment-view line carry the annotation `marker` (e.g.
 * "statkey-ok:")? Prose that merely *mentions* the marker — backticked
 * or quoted, as in the analyzer's own documentation — does not count.
 */
bool hasAnnotation(const std::string &commentLine,
                   const std::string &marker);

/**
 * One loaded source file with geometry-preserving views (raw text,
 * code-only, comment-only).
 */
struct SourceFile
{
    std::string rel; //!< path relative to the analysis root
    std::vector<std::string> raw;
    std::vector<std::string> code;
    std::vector<std::string> comments;
};

/**
 * Load every first-party translation unit (.cc/.hh) under `root`/src,
 * sorted by path so analysis output never depends on directory
 * iteration order. Returns false with `error` set when `root`/src is
 * not a directory.
 */
bool loadSourceTree(const std::string &root,
                    std::vector<SourceFile> &files, std::string &error);

} // namespace hmg::verify::lint

#endif // HMG_VERIFY_LINT_TEXT_HH
