/**
 * @file
 * hmglint core: the finding model shared by every analysis family.
 *
 * hmglint (tools/hmglint.cc) is the static complement to hmgcheck's
 * exhaustive exploration: where the model checker enumerates reachable
 * protocol states (and therefore stops scaling past small instances),
 * the lint families prove *structural* properties — of the transition
 * tables, of the NoC channel-dependency graph, of the protocol's
 * transient-state wait-for graph — in milliseconds, independent of
 * state-space size.
 *
 * Every family appends Findings to a shared LintReport. A Finding
 * carries machine-readable provenance (the file it is attributed to,
 * plus table/row for spec findings) and an optional counterexample:
 * the minimal dependency cycle, the masking row, the livelock cycle.
 * The report serializes to JSON (`hmglint --json`) so CI and editors
 * can consume findings without scraping diagnostics.
 */

#ifndef HMG_VERIFY_LINT_LINT_HH
#define HMG_VERIFY_LINT_LINT_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hmg::verify::lint
{

/** Severity of a finding. Errors gate CI; warnings inform. */
enum class Severity : std::uint8_t
{
    Error,
    Warning,
};

const char *toString(Severity s);

/** One machine-readable diagnostic with provenance. */
struct Finding
{
    /** Analysis family: "table", "cdg", "liveness", "composed". */
    std::string family;
    /** Specific check within the family, e.g. "dead-row". */
    std::string check;
    Severity severity = Severity::Error;
    /** Source provenance: the file that defines what the finding is
     *  about. For spec-table findings this is the file the tables live
     *  in; `row` then indexes the table. */
    std::string file;
    /** Table name and row index for spec findings ("" / -1 otherwise). */
    std::string table;
    int row = -1;
    /** One-line human diagnostic. */
    std::string message;
    /** Optional counterexample: cycle edges, masking rows, etc. */
    std::vector<std::string> counterexample;
};

/** The accumulated result of one hmglint run. */
class LintReport
{
  public:
    void add(Finding f) { findings_.push_back(std::move(f)); }

    /** Record a summary statistic, e.g. "cdg.nodes" -> 16. */
    void stat(const std::string &name, std::uint64_t v)
    {
        stats_[name] = v;
    }

    const std::vector<Finding> &findings() const { return findings_; }
    const std::map<std::string, std::uint64_t> &stats() const
    {
        return stats_;
    }

    bool clean() const { return errors() == 0; }
    std::size_t errors() const;
    std::size_t warnings() const;
    /** Findings belonging to `family`. */
    std::size_t count(const std::string &family) const;

    /** The whole report as a JSON object (findings + stats). */
    std::string toJson() const;
    /**
     * The report as a SARIF 2.1.0 log (one run, one result per
     * finding, one reportingDescriptor per family/check pair), so CI
     * systems and editors with SARIF ingestion consume findings
     * without a bespoke parser. Carries the same findings as toJson()
     * — counterexamples ride in each result's property bag.
     */
    std::string toSarif() const;
    /** Human-readable diagnostics, one finding per paragraph. */
    std::string toText() const;

  private:
    std::vector<Finding> findings_;
    std::map<std::string, std::uint64_t> stats_;
};

/** Escape `s` for embedding in a JSON string literal. */
std::string jsonEscape(const std::string &s);

} // namespace hmg::verify::lint

#endif // HMG_VERIFY_LINT_LINT_HH
