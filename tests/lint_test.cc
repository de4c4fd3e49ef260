/**
 * @file
 * The static stage's analysis families, positive and negative.
 *
 * Mirrors the retry_model_test pattern: each family must (a) run clean
 * on the real artifact — the shipped transition tables and the real NoC
 * topology — and (b) catch its seeded bug with a file-attributed
 * finding that names the defect: the masked row and its masker, or the
 * dependency cycle.
 */

#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fabric.hh"
#include "verify/lint/cdg.hh"
#include "verify/lint/lint.hh"
#include "verify/lint/table_lint.hh"
#include "verify/spec.hh"

using namespace hmg::verify::lint;
using hmg::verify::MsgDep;
using hmg::verify::Transition;
using hmg::verify::TransitionTable;

namespace
{

const Finding *
findCheck(const LintReport &r, const std::string &check)
{
    for (const Finding &f : r.findings())
        if (f.check == check)
            return &f;
    return nullptr;
}

/** checkTable()'s problems with `rows`, one per line. */
std::string
problemsOf(const std::vector<Transition> &rows)
{
    std::string all;
    for (const std::string &p : hmg::verify::checkTable(rows))
        all += p + "\n";
    return all;
}

} // namespace

// ===================================================================
// Family (a): spec-table structure.
// ===================================================================

TEST(TableLint, CleanOnShippedTable)
{
    LintReport r;
    analyzeTables(LintOptions{}, r);
    for (const Finding &f : r.findings())
        ADD_FAILURE() << "[" << f.check << "]: " << f.message;
    EXPECT_TRUE(r.clean());
    EXPECT_EQ(r.stats().at("table.rows"), 11u);
}

TEST(TableLint, SeededDeadRowCaughtWithMaskingRow)
{
    LintOptions o;
    o.seedDeadRow = true;
    LintReport r;
    analyzeTables(o, r);
    // The seed appends row 11 behind the table's 11 rows, where the
    // (Valid, LoadMiss, Always) row 0 answers its one query first.
    const Finding *f = findCheck(r, "core");
    ASSERT_NE(f, nullptr) << "seeded dead row not reported";
    ASSERT_EQ(r.findings().size(), 1u) << r.toText();
    EXPECT_EQ(f->family, std::string("table"));
    EXPECT_EQ(f->file, std::string("src/verify/tables.cc"));
    EXPECT_EQ(r.stats().at("table.rows"), 12u);
    // The message names both the dead row and its masker.
    EXPECT_EQ(f->message,
              "ambiguous: 2 rows match (Valid, LoadMiss, tracked=1): "
              "row 11 [Valid,LoadMiss,WriterTracked] is masked by "
              "row 0 [Valid,LoadMiss,Always]");
}

TEST(TableLint, CoreCatchesEveryDuplicatedOrDroppedRow)
{
    // Two mutants of every row, and core must fail both. A copy of the
    // row appended behind it can never fire (what a dead-row pass would
    // report), so core names it masked by the original. Every row
    // answers a query some directory receives, so dropping one leaves
    // that query with no row (what a missing-consumer pass would report
    // for an InvRecv row), and core reports the table incomplete.
    const TransitionTable t = hmg::verify::dirTable();
    std::size_t mutants = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const std::string name = hmg::verify::rowName(t, i);

        std::vector<Transition> copied(t.begin(), t.end());
        copied.push_back(t[i]);
        const std::string masked = hmg::verify::rowName(copied, t.size()) +
                                   " is masked by " + name;
        EXPECT_NE(problemsOf(copied).find(masked), std::string::npos)
            << name << " appended twice";
        ++mutants;

        std::vector<Transition> dropped(t.begin(), t.end());
        dropped.erase(dropped.begin() + static_cast<long>(i));
        EXPECT_NE(problemsOf(dropped).find("incomplete: no row for"),
                  std::string::npos)
            << name << " dropped";
        ++mutants;
    }
    EXPECT_EQ(mutants, 22u); // 11 rows, all receivable
}

TEST(TableLint, CoreNamesEveryRowAnchoredAtAnUnreachableState)
{
    // No Invalid-anchored row enters Valid any more, so from the
    // initial Invalid state no event path reaches Valid: every
    // Valid-anchored row is dead, though the table stays deterministic
    // and complete.
    std::vector<Transition> rows(hmg::verify::dirTable().begin(),
                                 hmg::verify::dirTable().end());
    for (Transition &r : rows)
        if (r.state == hmg::verify::DirState::Invalid) {
            r.next = hmg::verify::DirState::Invalid;
            r.update = hmg::verify::DirUpdate::None;
        }
    const std::vector<std::string> problems =
        hmg::verify::checkTable(rows);
    std::size_t valid = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (rows[i].state != hmg::verify::DirState::Valid)
            continue;
        ++valid;
        const std::string unreachable =
            "unreachable: " + hmg::verify::rowName(rows, i) + " ";
        std::size_t named = 0;
        for (const std::string &p : problems)
            named += p.rfind(unreachable, 0) == 0;
        EXPECT_EQ(named, 1u) << unreachable;
    }
    EXPECT_EQ(valid, 6u);
    EXPECT_EQ(problems.size(), valid) << problemsOf(rows);
}

TEST(TableLint, SeededRunIsDeterministic)
{
    LintOptions o;
    o.seedDeadRow = true;
    LintReport a, b;
    analyzeTables(o, a);
    analyzeTables(o, b);
    EXPECT_EQ(a.toJson(), b.toJson());
}

// ===================================================================
// Family (b): channel-dependency deadlock freedom.
// ===================================================================

TEST(CdgLint, RealTransportIsAcyclic)
{
    // Clean means the message-class dependency graph is acyclic (no
    // msg-class-cycle finding) and so is the credit-pool graph.
    LintReport r;
    analyzeCdg(LintOptions{}, r);
    for (const Finding &f : r.findings())
        ADD_FAILURE() << "[" << f.check << "] " << f.message;
    EXPECT_TRUE(r.clean());
    // The escape edges (unbounded NIC) must exist — they are the
    // reason the remaining graph is acyclic, not an empty graph.
    EXPECT_GT(r.stats().at("cdg.escape_edges"), 0u);
    EXPECT_GT(r.stats().at("cdg.edges"), 0u);
    // 14 two-level hop classes + the node-uplink tier's 4.
    EXPECT_EQ(r.stats().at("cdg.msg_classes"), 18u);
}

TEST(CdgLint, LargerInstanceStillAcyclic)
{
    LintOptions o;
    o.cfg.numGpus = 4;
    o.cfg.gpmsPerGpu = 4;
    LintReport r;
    analyzeCdg(o, r);
    EXPECT_TRUE(r.clean());
}

TEST(CdgLint, MessageClassCycleCaughtWithClosingEdge)
{
    // Two classes that emit each other: the DFS from class 0 reaches
    // class 1, whose emission back to 0 closes the loop.
    const MsgDep deps[] = {
        {0, 1, "forward"},
        {1, 0, "answer back"},
    };
    LintReport r;
    analyzeMsgDeps(deps, r);
    ASSERT_EQ(r.findings().size(), 1u);
    const Finding &f = r.findings().front();
    EXPECT_EQ(f.family, std::string("cdg"));
    EXPECT_EQ(f.check, std::string("msg-class-cycle"));
    EXPECT_EQ(f.file, std::string("src/verify/tables.cc"));
    ASSERT_EQ(f.counterexample.size(), 1u);
    EXPECT_EQ(f.counterexample[0],
              "closing edge: handling ReadReq.fwd emits ReadReq.req "
              "(answer back)");
}

TEST(CdgLint, SeededBoundedNicCycleCaught)
{
    LintOptions o;
    o.seedCdgCycle = true;
    LintReport r;
    analyzeCdg(o, r);
    const Finding *f = findCheck(r, "cycle");
    ASSERT_NE(f, nullptr) << "seeded CDG cycle not reported";
    EXPECT_EQ(f->file, std::string("src/noc/network.cc"));
    // A real cycle: at least nic -> egress -> ingress -> nic, each
    // counterexample line one "holds while waiting" edge.
    ASSERT_GE(f->counterexample.size(), 3u);
    for (const std::string &edge : f->counterexample)
        EXPECT_NE(edge.find("-->"), std::string::npos) << edge;
    // The loop must close: first edge's source is last edge's target.
    const std::string firstNode =
        f->counterexample.front().substr(0,
            f->counterexample.front().find(' '));
    EXPECT_NE(f->counterexample.back().find("--> " + firstNode),
              std::string::npos);
}

namespace
{

using EdgeSet = std::set<std::pair<std::string, std::string>>;

/**
 * The route edges the per-tier transport implies, by pool name:
 * crossbar hops between sibling GPMs; a GPM egress into its GPU's
 * switch egress and the switch ingress out to each GPM, when there is
 * another GPU to reach; switch hops between GPUs of one node; and,
 * multi-node, the uplinks: switch egress into the node egress, node
 * hops, node ingress out to each GPU's switch ingress.
 */
EdgeSet
referenceRouteEdges(const hmg::SystemConfig &c)
{
    auto gpm = [](std::uint32_t g, const char *dir) {
        return "gpm" + std::to_string(g) + dir;
    };
    auto gpu = [](std::uint32_t u, const char *dir) {
        return "gpu" + std::to_string(u) + dir;
    };
    auto node = [](std::uint32_t n, const char *dir) {
        return "node" + std::to_string(n) + dir;
    };
    EdgeSet e;
    for (std::uint32_t m = 0; m < c.totalGpms(); ++m) {
        for (std::uint32_t d = 0; d < c.totalGpms(); ++d)
            if (d != m && c.gpuOf(d) == c.gpuOf(m))
                e.insert({gpm(m, ".egress"), gpm(d, ".ingress")});
        if (c.numGpus > 1) {
            e.insert({gpm(m, ".egress"), gpu(c.gpuOf(m), ".egress")});
            e.insert({gpu(c.gpuOf(m), ".ingress"), gpm(m, ".ingress")});
        }
    }
    for (std::uint32_t su = 0; su < c.numGpus; ++su)
        for (std::uint32_t du = 0; du < c.numGpus; ++du)
            if (su != du && c.nodeOf(su) == c.nodeOf(du))
                e.insert({gpu(su, ".egress"), gpu(du, ".ingress")});
    if (c.numNodes > 1) {
        for (std::uint32_t u = 0; u < c.numGpus; ++u) {
            e.insert({gpu(u, ".egress"), node(c.nodeOf(u), ".egress")});
            e.insert({node(c.nodeOf(u), ".ingress"), gpu(u, ".ingress")});
        }
        for (std::uint32_t sn = 0; sn < c.numNodes; ++sn)
            for (std::uint32_t dn = 0; dn < c.numNodes; ++dn)
                if (sn != dn)
                    e.insert({node(sn, ".egress"), node(dn, ".ingress")});
    }
    return e;
}

} // namespace

TEST(CdgLint, RouteEdgesAreTheFabricsHops)
{
    // {nodes, GPUs, GPMs per GPU}; the one-GPU shape has no switch hop
    // to take, so its switch ports stay unconnected.
    const std::uint32_t shapes[][3] = {
        {1, 2, 2}, {1, 4, 4}, {2, 4, 2}, {2, 2, 2}, {1, 1, 4},
    };
    for (const auto &s : shapes) {
        LintOptions o;
        o.cfg.numNodes = s[0];
        o.cfg.numGpus = s[1];
        o.cfg.gpmsPerGpu = s[2];
        o.cfg.validate();
        const hmg::Fabric f(o.cfg);
        const std::uint32_t gpms = o.cfg.totalGpms();
        EdgeSet hops;
        for (std::uint32_t src = 0; src < gpms; ++src)
            for (std::uint32_t dst = 0; dst < gpms; ++dst)
                for (std::uint32_t l = f.entry(src).link, n;
                     src != dst &&
                     (n = f.next(l, src, dst).link) != hmg::Fabric::kDeliver;
                     l = n)
                    hops.insert({f.link(l).name, f.link(n).name});
        EXPECT_EQ(hops, referenceRouteEdges(o.cfg))
            << s[0] << "x" << s[1] << "x" << s[2];

        // The cdg draws one node per link plus one NIC per GPM, and one
        // edge per distinct hop plus each NIC's drain into its egress.
        LintReport r;
        analyzeCdg(o, r);
        EXPECT_TRUE(r.clean()) << r.toText();
        EXPECT_EQ(r.stats().at("cdg.nodes"), f.links().size() + gpms);
        EXPECT_EQ(r.stats().at("cdg.edges"), hops.size() + gpms);
    }
}

// ===================================================================
// Report plumbing.
// ===================================================================

TEST(LintReport, JsonEscapesAndCounts)
{
    LintReport r;
    EXPECT_TRUE(r.clean());
    Finding f;
    f.family = "test";
    f.check = "quote";
    f.file = "a\"b.cc";
    f.message = "line1\nline2\ttab";
    r.add(std::move(f));
    EXPECT_FALSE(r.clean());
    const std::string j = r.toJson();
    EXPECT_NE(j.find("a\\\"b.cc"), std::string::npos);
    EXPECT_NE(j.find("line1\\nline2\\ttab"), std::string::npos);
    EXPECT_NE(j.find("\"errors\": 1"), std::string::npos);
}

TEST(LintReport, SarifCarriesSameFindingsAsJson)
{
    LintReport r;
    Finding f;
    f.family = "cdg";
    f.check = "cycle";
    f.file = "src/noc/network.cc";
    f.message = "channel-dependency cycle through \"gpu0.egress\"";
    f.counterexample = {"nic0 --> gpm0.egress", "gpm0.egress --> nic0"};
    r.add(std::move(f));
    Finding w;
    w.family = "table";
    w.check = "core";
    w.file = "src/verify/tables.cc";
    w.message = "unreachable: row 9 [Valid,InvRecv,Always] is anchored "
                "at Valid";
    r.add(std::move(w));
    r.stat("cdg.nodes", 7);

    const std::string sarif = r.toSarif();
    // SARIF 2.1.0 skeleton.
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("sarif-schema-2.1.0.json"), std::string::npos);
    EXPECT_NE(sarif.find("\"name\": \"hmgcheck\""), std::string::npos);
    // One reportingDescriptor per family/check, results referencing
    // them by id and index.
    EXPECT_NE(sarif.find("\"id\": \"cdg/cycle\""), std::string::npos);
    EXPECT_NE(sarif.find("\"id\": \"table/core\""), std::string::npos);
    EXPECT_NE(sarif.find("\"ruleIndex\": 0"), std::string::npos);
    EXPECT_NE(sarif.find("\"ruleIndex\": 1"), std::string::npos);
    // Every result is an error (SARIF's default level is warning), and
    // carries its location.
    std::size_t errors = 0;
    for (std::size_t at = sarif.find("\"level\": \"error\"");
         at != std::string::npos;
         at = sarif.find("\"level\": \"error\"", at + 1))
        ++errors;
    EXPECT_EQ(errors, 2u);
    EXPECT_EQ(sarif.find("\"level\": \"warning\""), std::string::npos);
    EXPECT_NE(sarif.find("\"uri\": \"src/noc/network.cc\""),
              std::string::npos);
    // Round-trip: every message, file and counterexample line of the
    // JSON report appears in the SARIF log too.
    for (const Finding &g : r.findings()) {
        EXPECT_NE(sarif.find(jsonEscape(g.message)), std::string::npos);
        EXPECT_NE(sarif.find(jsonEscape(g.file)), std::string::npos);
        for (const std::string &c : g.counterexample)
            EXPECT_NE(sarif.find(jsonEscape(c)), std::string::npos);
    }
    // Stats ride in the run-level property bag.
    EXPECT_NE(sarif.find("\"cdg.nodes\": 7"), std::string::npos);
}

TEST(LintReport, SarifIsByteDeterministic)
{
    // Both families' seeds, so the log carries findings with a
    // message-only shape (core) and with a counterexample (cycle).
    LintOptions o;
    o.seedDeadRow = true;
    o.seedCdgCycle = true;
    LintReport a, b;
    for (LintReport *r : {&a, &b}) {
        analyzeTables(o, *r);
        analyzeCdg(o, *r);
    }
    EXPECT_EQ(a.findings().size(), 2u);
    EXPECT_EQ(a.toSarif(), b.toSarif());
}
