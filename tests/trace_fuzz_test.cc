/**
 * @file
 * Seeded mutation fuzz of the hmgtrace loader (trace/io.hh).
 *
 * A trace file is the other input a run takes from outside, so its
 * loader must turn every malformed stream into a located error. A small
 * trace covering every op, scope and flag is saved, then mutated by a
 * fixed seed: byte flips, truncations, header counts the stream cannot
 * back, bad op, scope and flag letters, non-hex addresses and embedded
 * NUL bytes. Every mutant is loaded in a forked child (a rejection exits
 * the process; tests/fuzz_harness.hh). The contract: the mutant either
 * loads (exit 0), or the child exits 1 with one fatal line located at
 * `<origin>:<line>:`. It never dies by a signal, and under the asan and
 * ubsan presets never trips a sanitizer (whose report would not match
 * the fatal line).
 *
 * The targeted classes must also be refused for their own reason, on
 * the line that carries the defect.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "fuzz_harness.hh"
#include "trace/io.hh"

namespace hmg
{
namespace
{

using fuzz::inChild;
using fuzz::Outcome;
using fuzz::parserLine;

/** Two kernels whose warps use every op, scope and flag. */
std::string
baseText()
{
    trace::Trace t;
    t.name = "fuzz";
    for (int k = 0; k < 2; ++k) {
        trace::Kernel kernel;
        kernel.name = "k" + std::to_string(k);
        for (int c = 0; c < 2; ++c) {
            trace::Cta cta;
            for (int w = 0; w < 2; ++w) {
                const Addr base = 0x1000u * static_cast<Addr>(1 + k + c + w);
                trace::Warp warp;
                warp.ld(base, 2)
                    .st(base + 0x80, 3, Scope::Sys, /*release=*/true)
                    .atom(base + 0x100, Scope::Gpu, 4, true, true)
                    .acqFence(Scope::Gpu, 1)
                    .relFence(Scope::Cta, 0)
                    .ld(0xfffffffffffff000ull, 4000000000u, Scope::Gpu,
                        /*acquire=*/true);
                cta.warps.push_back(std::move(warp));
            }
            kernel.ctas.push_back(std::move(cta));
        }
        t.kernels.push_back(std::move(kernel));
    }
    std::ostringstream os;
    trace::save(t, os);
    return os.str();
}

Outcome
loadText(const std::string &text, const std::string &origin)
{
    return inChild([&]() {
        std::istringstream is(text);
        (void)trace::load(is, origin);
    });
}

/** Exit 0 quietly, or exit 1 with one fatal line located in `origin`.
 *  @return the located line, or 0 for a clean load. */
int
expectContract(const Outcome &o, const std::string &origin,
               const std::string &text)
{
    const std::string what = origin + " (" + std::to_string(text.size()) +
                             " bytes): " + o.err;
    EXPECT_TRUE(o.exited) << "killed by signal " << o.code << ": " << what;
    if (!o.exited)
        return 0;
    if (o.code == 0) {
        EXPECT_TRUE(o.err.empty()) << what;
        return 0;
    }
    EXPECT_EQ(o.code, 1) << what;
    EXPECT_EQ(std::count(o.err.begin(), o.err.end(), '\n'), 1) << what;
    const int line = parserLine(o.err, origin);
    EXPECT_GT(line, 0) << what;
    return line;
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

/** Whitespace-separated fields of one record. */
std::vector<std::string>
fieldsOf(const std::string &line)
{
    std::vector<std::string> f;
    std::istringstream in(line);
    for (std::string w; in >> w;)
        f.push_back(w);
    return f;
}

std::string
joinFields(const std::vector<std::string> &f)
{
    std::string s;
    for (const std::string &w : f)
        s += (s.empty() ? "" : " ") + w;
    return s;
}

class TraceFuzz : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        text_ = baseText();
        lines_ = splitLines(text_);
        for (std::size_t i = 0; i < lines_.size(); ++i) {
            const auto f = fieldsOf(lines_[i]);
            if (f.size() == 5)
                ops_.push_back(i);
            else if (f[0] == "kernel" || f[0] == "cta" || f[0] == "warp")
                headers_.push_back(i);
        }
        ASSERT_GE(ops_.size(), 40u);
        ASSERT_GE(headers_.size(), 10u);
    }

    /** A per-class seed, so adding a class never shifts another's
     *  mutants. */
    static Rng
    rng(std::uint64_t cls)
    {
        return Rng(fuzz::seedOf("hmgtrace", cls));
    }

    static std::string
    origin(const char *cls, int i)
    {
        return std::string("fuzz.") + cls + std::to_string(i) + ".hmgtrace";
    }

    /** `lines_` with field `field` of line `at` replaced by `value`. */
    std::string
    withField(std::size_t at, std::size_t field, const std::string &value)
        const
    {
        std::vector<std::string> lines = lines_;
        auto f = fieldsOf(lines[at]);
        f[field] = value;
        lines[at] = joinFields(f);
        return joinLines(lines);
    }

    /** Mutate one field of a random record of `rows` with each value in
     *  turn; each mutant must be refused on that record's line with a
     *  message containing `why`. */
    void
    expectRefusedOnItsLine(std::uint64_t cls, const char *name,
                           const std::vector<std::size_t> &rows,
                           std::size_t field,
                           const std::vector<std::string> &values,
                           const char *why)
    {
        Rng r = rng(cls);
        for (std::size_t i = 0; i < values.size(); ++i) {
            const std::size_t at = rows[r.below(rows.size())];
            const std::string m = withField(at, field, values[i]);
            const std::string o = origin(name, static_cast<int>(i));
            const Outcome out = loadText(m, o);
            EXPECT_EQ(expectContract(out, o, m), static_cast<int>(at) + 1)
                << o << ": " << out.err;
            EXPECT_NE(out.err.find(why), std::string::npos)
                << o << ": " << out.err;
        }
    }

    std::string text_;
    std::vector<std::string> lines_;
    std::vector<std::size_t> ops_;     //!< op records
    std::vector<std::size_t> headers_; //!< kernel, cta and warp records
};

TEST_F(TraceFuzz, OriginalLoads)
{
    const Outcome o = loadText(text_, "fuzz.hmgtrace");
    EXPECT_TRUE(o.exited && o.code == 0) << o.err;
}

TEST_F(TraceFuzz, ByteFlips)
{
    Rng r = rng(1);
    for (int i = 0; i < 80; ++i) {
        std::string m = text_;
        m[r.below(m.size())] ^= static_cast<char>(1u << r.below(8));
        const std::string o = origin("flip", i);
        expectContract(loadText(m, o), o, m);
    }
}

TEST_F(TraceFuzz, Truncations)
{
    Rng r = rng(2);
    for (int i = 0; i < 40; ++i) {
        const std::string m = text_.substr(0, r.below(text_.size()));
        const std::string o = origin("trunc", i);
        expectContract(loadText(m, o), o, m);
    }
}

TEST_F(TraceFuzz, CountsTheStreamCannotBack)
{
    // A kernel, cta or warp count above what follows runs into the next
    // record or the end of the stream; one past 2^64 cannot be held.
    static const char *const kCounts[] = {
        "3", "7", "1000000", "18446744073709551615", "18446744073709551616",
        "99999999999999999999999"};
    Rng r = rng(3);
    for (int i = 0; i < 30; ++i) {
        const std::size_t at = headers_[r.below(headers_.size())];
        const std::size_t field = fieldsOf(lines_[at]).size() - 1;
        const std::string m =
            withField(at, field, kCounts[r.below(std::size(kCounts))]);
        const std::string o = origin("count", i);
        const Outcome out = loadText(m, o);
        EXPECT_GT(expectContract(out, o, m), 0) << o << " loaded";
    }
}

TEST_F(TraceFuzz, BadOpLettersAreRefused)
{
    expectRefusedOnItsLine(4, "op", ops_, 0,
                           {"x", "L", "ld", "-", "f", "\x01", "S"},
                           "unknown op");
}

TEST_F(TraceFuzz, BadScopeLettersAreRefused)
{
    expectRefusedOnItsLine(5, "scope", ops_, 1,
                           {"x", "G", "sys", "0", "C", "+"},
                           "unknown scope");
}

TEST_F(TraceFuzz, BadFlagsAreRefused)
{
    expectRefusedOnItsLine(6, "flags", ops_, 4,
                           {"x", "ra", "aa", "-a", "A", "arr", "--"},
                           "bad flags");
}

TEST_F(TraceFuzz, NonHexAddressesAreRefused)
{
    expectRefusedOnItsLine(7, "addr", ops_, 2,
                           {"0x10", "xyz", "-5", "+5", "12g4", "1.5",
                            "10000000000000000"},
                           "address");
}

TEST_F(TraceFuzz, EmbeddedNulIsRefusedOnItsLine)
{
    Rng r = rng(8);
    for (int i = 0; i < 20; ++i) {
        const std::size_t at = r.below(text_.size());
        std::string m = text_;
        m.insert(at, 1, '\0');
        const std::string o = origin("nul", i);
        const Outcome out = loadText(m, o);
        const auto line = 1 + std::count(m.begin(),
                                         m.begin() + static_cast<long>(at),
                                         '\n');
        EXPECT_EQ(expectContract(out, o, m), line) << o << ": " << out.err;
        EXPECT_NE(out.err.find("NUL byte"), std::string::npos)
            << o << ": " << out.err;
    }
}

} // namespace
} // namespace hmg
