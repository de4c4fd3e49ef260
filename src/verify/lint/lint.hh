/**
 * @file
 * The static stage's core: the finding model shared by every analysis
 * family.
 *
 * hmgcheck's static stage (tools/hmgcheck.cc) complements its
 * exhaustive exploration: where the model checker enumerates reachable
 * protocol states (and therefore stops scaling past small instances),
 * the lint families prove *structural* properties — of the transition
 * table and of the NoC channel-dependency graph — in milliseconds,
 * independent of state-space size.
 *
 * Every family reads one LintOptions — the validated SystemConfig of
 * the machine under analysis, whose fabric the transport proofs are
 * drawn from, plus the families' seeds — and appends Findings to a
 * shared LintReport. A Finding carries machine-readable provenance
 * (the file it is attributed to; a table finding names its rows by
 * index in its message) and an optional counterexample: the minimal
 * dependency cycle, the closing message-class edge. Every finding is
 * an error. The report serializes to text, JSON (`hmgcheck --static
 * --json`) and SARIF so CI and editors can consume findings without
 * scraping diagnostics.
 */

#ifndef HMG_VERIFY_LINT_LINT_HH
#define HMG_VERIFY_LINT_LINT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/config.hh"

namespace hmg::verify::lint
{

/** Where the table lives; row indices attribute findings into it. */
inline constexpr const char *kTablesFile = "src/verify/tables.cc";

/**
 * What one static pass analyzes: the machine the cdg graph is built
 * over, and each family's test hook. A family applies only its own
 * seed.
 */
struct LintOptions
{
    /**
     * The validated machine — shape, link rates and latencies, queue
     * floors — whose fabric (common/fabric.hh) the transport proofs
     * are drawn from, so their pools are the ones the simulator sizes.
     * hmgcheck fills it from --topology or the geometry flags; the
     * default is the 2 GPU x 2 GPM machine exploration models.
     */
    SystemConfig cfg = [] {
        SystemConfig c;
        c.numGpus = 2;
        c.gpmsPerGpu = 2;
        return c;
    }();
    /** table: append a guard-shadowed row (TableSeed::DeadRow). */
    bool seedDeadRow = false;
    /** cdg: model a bounded, blocking NIC injection queue. */
    bool seedCdgCycle = false;
};

/** One machine-readable diagnostic with provenance. */
struct Finding
{
    /** Analysis family: "table" or "cdg". */
    std::string family;
    /** Specific check within the family, e.g. "core". */
    std::string check;
    /** Source provenance: the file that defines what the finding is
     *  about. For table findings this is the file the table lives in,
     *  and the message names rows by their index there. */
    std::string file;
    /** One-line human diagnostic. */
    std::string message;
    /** Optional counterexample: cycle edges, the closing edge. */
    std::vector<std::string> counterexample;
};

/** The accumulated result of one static pass. */
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

    bool clean() const { return findings_.empty(); }

    /** The whole report as a JSON object (findings + stats). */
    std::string toJson() const;
    /**
     * The report as a SARIF 2.1.0 log (one run, one result per
     * finding, one reportingDescriptor per family/check pair), so CI
     * systems and editors with SARIF ingestion consume findings
     * without a bespoke parser. Carries the same findings as toJson()
     * — counterexamples ride in each result's property bag. Every
     * result says `"level": "error"`, because SARIF's default level is
     * `warning`.
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
