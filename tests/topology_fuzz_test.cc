/**
 * @file
 * Seeded mutation fuzz of the topology JSON parser.
 *
 * The topology file is the single source of the machine's fabric, so
 * its parser must turn every malformed input into a located error.
 * Each shipped example under examples/topologies/ is mutated by a fixed
 * seed — byte flips, truncations, duplicated and reordered members,
 * numeric extremes and embedded NUL bytes — and every mutant is parsed
 * and applied in a forked child (a rejection exits the process). The
 * contract: the mutant either applies to a config that validate()
 * accepts and whose fabric sizes every credit pool to cover twice its
 * bandwidth-delay product (exit 0), or the child exits 1 with one fatal
 * line that is located — `<file>:<line>:` from the parser, or the
 * source line of the validate() check that refused the shape. It never
 * dies by a signal, and under the asan and ubsan presets never trips a
 * sanitizer (whose reports would not match the fatal line).
 *
 * Duplicated members must be refused as duplicates, NUL bytes as NUL
 * bytes on their own line, and reordered members must parse to the
 * same topology as the original. A rate at the top of the double range
 * must be refused by validate(), naming its field: once accepted, it
 * overflowed the fabric's pool arithmetic (a double-to-integer cast the
 * ubsan preset does not instrument), which the pool check catches.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/fabric.hh"
#include "common/rng.hh"
#include "common/topology.hh"
#include "fuzz_harness.hh"

namespace hmg
{
namespace
{

using fuzz::inChild;
using fuzz::Outcome;
using fuzz::parserLine;

/**
 * Exit 3 unless every link of `cfg`'s fabric has a credit pool of at
 * least twice its rate times (its fastest feeder's latency + 8 cycles):
 * a lower bound of the sizing rule in common/fabric.hh, computed in
 * floating point so an overflowed integer pool cannot pass.
 */
void
checkPools(const SystemConfig &cfg)
{
    const Fabric f(cfg);
    for (std::uint32_t l = 0; l < f.links().size(); ++l) {
        const FabricLink &k = f.link(l);
        double feed = -1;
        for (std::uint32_t in = 0; in < k.inputs; ++in) {
            const FabricFeeder src = f.feeder(l, in);
            const double lat =
                src.link == Fabric::kNic
                    ? 0.0
                    : static_cast<double>(f.link(src.link).latency);
            feed = feed < 0 ? lat : std::min(feed, lat);
        }
        const double bdp = k.bytesPerCycle * (feed + 8.0);
        // The pool floors the product to an integer before doubling it.
        if (!(static_cast<double>(k.poolBytes) + 2.0 >= 2.0 * bdp)) {
            std::fprintf(stderr, "pool of %s (%llu B) < 2 x %g B\n",
                         k.name.c_str(),
                         static_cast<unsigned long long>(k.poolBytes), bdp);
            std::_Exit(3);
        }
    }
}

/** Parse `text` as file `origin`, apply it to a default config and
 *  check the fabric built from it. */
Outcome
applyText(const std::string &text, const std::string &origin)
{
    return inChild([&]() {
        SystemConfig cfg;
        Topology::parseJson(text, origin).applyTo(cfg);
        checkPools(cfg);
    });
}

/** Exit 0 quietly, or exit 1 with one located fatal line. */
void
expectContract(const Outcome &o, const std::string &origin,
               const std::string &text)
{
    const std::string what = origin + " (" + std::to_string(text.size()) +
                             " bytes): " + o.err;
    ASSERT_TRUE(o.exited) << "killed by signal " << o.code << ": " << what;
    if (o.code == 0) {
        EXPECT_TRUE(o.err.empty()) << what;
        return;
    }
    EXPECT_EQ(o.code, 1) << what;
    EXPECT_EQ(std::count(o.err.begin(), o.err.end(), '\n'), 1) << what;
    const bool located =
        parserLine(o.err, origin) > 0 ||
        (o.err.rfind("fatal: ", 0) == 0 &&
         o.err.find("config.cc:") != std::string::npos);
    EXPECT_TRUE(located) << what;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string l; std::getline(in, l);)
        lines.push_back(l);
    return lines;
}

std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string s;
    for (const std::string &l : lines)
        s += l + "\n";
    return s;
}

/** Member lines that a sibling may follow: `"key": value,`. */
std::vector<std::size_t>
commaMembers(const std::vector<std::string> &lines)
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < lines.size(); ++i)
        if (lines[i].find("\": ") != std::string::npos &&
            !lines[i].empty() && lines[i].back() == ',')
            out.push_back(i);
    return out;
}

std::size_t
indentOf(const std::string &line)
{
    return line.find_first_not_of(' ');
}

class TopologyFuzz : public ::testing::TestWithParam<const char *>
{
  protected:
    void
    SetUp() override
    {
        const std::string path =
            std::string(HMG_TOPOLOGY_DIR) + "/" + GetParam();
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in) << path;
        std::ostringstream ss;
        ss << in.rdbuf();
        text_ = ss.str();
        lines_ = splitLines(text_);
        members_ = commaMembers(lines_);
        ASSERT_GE(members_.size(), 4u) << path;
    }

    /** A per-file, per-class seed, so adding a class or a file never
     *  shifts another's mutants. */
    Rng
    rng(std::uint64_t cls) const
    {
        return Rng(fuzz::seedOf(GetParam(), cls));
    }

    std::string
    origin(const char *cls, int i) const
    {
        return std::string(GetParam()) + "." + cls + std::to_string(i);
    }

    std::string text_;
    std::vector<std::string> lines_;
    std::vector<std::size_t> members_;
};

TEST_P(TopologyFuzz, OriginalApplies)
{
    const Outcome o = applyText(text_, GetParam());
    EXPECT_TRUE(o.exited && o.code == 0) << o.err;
}

TEST_P(TopologyFuzz, ByteFlips)
{
    Rng r = rng(1);
    for (int i = 0; i < 60; ++i) {
        std::string m = text_;
        m[r.below(m.size())] ^= static_cast<char>(1u << r.below(8));
        const std::string o = origin("flip", i);
        expectContract(applyText(m, o), o, m);
    }
}

TEST_P(TopologyFuzz, Truncations)
{
    Rng r = rng(2);
    for (int i = 0; i < 30; ++i) {
        // Cut anywhere before the closing brace: no such prefix is a
        // complete object, so the parser itself must refuse it.
        const std::string m = text_.substr(0, r.below(text_.rfind('}')));
        const std::string o = origin("trunc", i);
        const Outcome out = applyText(m, o);
        expectContract(out, o, m);
        EXPECT_GT(parserLine(out.err, o), 0) << o << ": " << out.err;
    }
}

TEST_P(TopologyFuzz, DuplicatedMembersAreRefused)
{
    Rng r = rng(3);
    for (int i = 0; i < 15; ++i) {
        const std::size_t at = members_[r.below(members_.size())];
        std::vector<std::string> lines = lines_;
        lines.insert(lines.begin() + static_cast<long>(at) + 1, lines[at]);
        const std::string m = joinLines(lines);
        const std::string o = origin("dup", i);
        const Outcome out = applyText(m, o);
        expectContract(out, o, m);
        EXPECT_EQ(parserLine(out.err, o), static_cast<int>(at) + 2)
            << o << ": " << out.err;
        EXPECT_NE(out.err.find("duplicate key"), std::string::npos)
            << o << ": " << out.err;
    }
}

TEST_P(TopologyFuzz, ReorderedMembersParseTheSame)
{
    Rng r = rng(4);
    const std::string want =
        Topology::parseJson(text_, GetParam()).toJson();
    for (int i = 0; i < 15; ++i) {
        // Swap two comma-terminated members of one object (same
        // indentation, no brace between them).
        const std::size_t a = members_[r.below(members_.size())];
        std::size_t b = a;
        for (std::size_t k = a + 1;
             k < lines_.size() && indentOf(lines_[k]) == indentOf(lines_[a]);
             ++k)
            if (!lines_[k].empty() && lines_[k].back() == ',' &&
                r.chance(0.5))
                b = k;
        std::vector<std::string> lines = lines_;
        std::swap(lines[a], lines[b]);
        const std::string m = joinLines(lines);
        const std::string o = origin("reorder", i);
        const Outcome out = inChild([&]() {
            SystemConfig cfg;
            const Topology t = Topology::parseJson(m, o);
            if (t.toJson() != want)
                std::_Exit(2);
            t.applyTo(cfg);
        });
        EXPECT_TRUE(out.exited && out.code == 0)
            << o << " exit " << out.code << ": " << out.err;
    }
}

TEST_P(TopologyFuzz, NumericExtremes)
{
    static const char *const kExtremes[] = {
        "0",         "-1",         "-0",        "0.5",
        "1e308",     "1e-308",     "1e999",     "-1e999",
        "nan",       "inf",        "4294967295", "4294967296",
        "2147483648", "18446744073709551616",    "99999999999999999999",
        "1024",      "33",         "1073741825", "3",
    };
    // The value spans of every numeric member.
    std::vector<std::pair<std::size_t, std::size_t>> nums;
    for (std::size_t p = text_.find("\": "); p != std::string::npos;
         p = text_.find("\": ", p + 1)) {
        const std::size_t begin = p + 3;
        if (begin >= text_.size() || text_[begin] == '"' ||
            text_[begin] == '{')
            continue;
        std::size_t end = begin;
        while (end < text_.size() && text_[end] != ',' &&
               text_[end] != '\n')
            ++end;
        nums.emplace_back(begin, end - begin);
    }
    ASSERT_FALSE(nums.empty());
    Rng r = rng(5);
    for (int i = 0; i < 40; ++i) {
        const auto [at, len] = nums[r.below(nums.size())];
        std::string m = text_;
        m.replace(at, len, kExtremes[r.below(std::size(kExtremes))]);
        const std::string o = origin("num", i);
        expectContract(applyText(m, o), o, m);
    }
}

TEST_P(TopologyFuzz, RateAtDoubleMaxIsRefused)
{
    // A fixed mutant per rate member: the seeded draws above are not
    // guaranteed to put 1e308 on one.
    static const std::pair<const char *, const char *> kRates[] = {
        {"intraGpuGBps", "interGpmGBpsPerGpu"},
        {"interGpuGBps", "interGpuGBpsPerLink"},
        {"interNodeGBps", "interNodeGBpsPerLink"},
        {"dramGBpsPerGpu", "dramGBpsPerGpu"},
    };
    int mutated = 0;
    for (const auto &[key, field] : kRates) {
        const std::string member = std::string("\"") + key + "\": ";
        const std::size_t at = text_.find(member);
        if (at == std::string::npos)
            continue;
        const std::size_t begin = at + member.size();
        const std::size_t end = text_.find_first_of(",\n}", begin);
        std::string m = text_;
        m.replace(begin, end - begin, "1e308");
        const std::string o = origin("rate", mutated++);
        const Outcome out = applyText(m, o);
        expectContract(out, o, m);
        EXPECT_EQ(out.code, 1) << o;
        EXPECT_NE(out.err.find(field), std::string::npos)
            << o << ": " << out.err;
    }
    EXPECT_EQ(mutated, 4);
}

TEST_P(TopologyFuzz, EmbeddedNulIsRefusedOnItsLine)
{
    Rng r = rng(6);
    for (int i = 0; i < 15; ++i) {
        const std::size_t at = r.below(text_.size() + 1);
        std::string m = text_;
        m.insert(at, 1, '\0');
        const std::string o = origin("nul", i);
        const Outcome out = applyText(m, o);
        expectContract(out, o, m);
        const auto line = 1 + std::count(m.begin(),
                                         m.begin() + static_cast<long>(at),
                                         '\n');
        EXPECT_EQ(parserLine(out.err, o), line) << o << ": " << out.err;
        EXPECT_NE(out.err.find("NUL byte"), std::string::npos)
            << o << ": " << out.err;
    }
}

INSTANTIATE_TEST_SUITE_P(Examples, TopologyFuzz,
                         ::testing::Values("dgx_4x4.json",
                                           "two_node_2x2x2.json",
                                           "scaleout_8x8x4.json"),
                         [](const auto &info) {
                             std::string n = info.param;
                             n = n.substr(0, n.find('.'));
                             return n;
                         });

} // namespace
} // namespace hmg
