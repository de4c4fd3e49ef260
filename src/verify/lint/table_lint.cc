#include "verify/lint/table_lint.hh"

#include <string>
#include <utility>
#include <vector>

#include "verify/spec.hh"

namespace hmg::verify::lint
{

void
analyzeTables(const LintOptions &opts, LintReport &report)
{
    const std::vector<Transition> rows = seededTable(
        opts.seedDeadRow ? TableSeed::DeadRow : TableSeed::None);
    for (std::string &problem : checkTable(rows)) {
        Finding f;
        f.family = "table";
        f.check = "core";
        f.file = kTablesFile;
        f.message = std::move(problem);
        report.add(std::move(f));
    }
    report.stat("table.rows", rows.size());
}

} // namespace hmg::verify::lint
