/**
 * @file
 * Seeded mutation fuzz of the hmgsim command line (tools/hmgsim.cc).
 *
 * The command line is the third input a run takes from outside, beside
 * topology files and hmgtrace streams. A valid argv for a tiny cell is
 * mutated by a fixed seed: flags dropped, repeated, reordered, renamed to
 * unknown spellings and stripped of their values, and every number
 * replaced by 0, -1, 2^64, 1e308, nan, hex and the empty string. Every
 * geometry flag is also set to its parse ceiling and to the largest
 * power of two under it, where validation and the tag store's mapping
 * meet their limits. Each mutant runs as a child hmgsim
 * (tests/fuzz_harness.hh). The contract: it exits 0, or exits 1 with
 * exactly one `fatal:` line that names its source location. It never
 * dies by a signal, and under the asan and ubsan presets never trips a
 * sanitizer (whose report would not match that line).
 *
 * Accepted mutants simulate bfs at scale 0.01 (on 2 GPUs unless a mutant
 * drops `--gpus`), and no mutation can raise the scale, so the whole
 * fuzz stays cheap.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "fuzz_harness.hh"

namespace hmg
{
namespace
{

using fuzz::inChild;
using fuzz::Outcome;
using fuzz::seedOf;

/** One flag of the base command line; `value` is empty for a switch. */
struct Flag
{
    std::string name;
    std::string value;
    bool numeric = false;
    /** Parse ceiling of a geometry flag ("" for other flags). */
    std::string ceiling = {};
};

/** A valid argv for a tiny cell that sets every numeric flag. */
std::vector<Flag>
baseFlags()
{
    return {
        {"--workload", "bfs"},
        {"--protocol", "hmg"},
        {"--scale", "0.01", true},
        {"--seed", "3", true},
        {"--nodes", "1", true, "1024"},
        {"--gpus", "2", true, "1024"},
        {"--gpms", "2", true, "1024"},
        {"--l2-mb", "12", true, "1048576"},
        {"--dir-entries", "12288", true, "4294967295"},
        {"--dir-lines", "1", true, "4294967295"},
        {"--inter-bw", "64", true, "1e9"},
        {"--placement", "round-robin"},
        {"--lp-jobs", "1", true},
        {"--fault-seed", "5", true},
        {"--fault-drop", "0.001", true},
        {"--fault-delay", "0.001", true},
        {"--fault-delay-cycles", "16", true},
        {"--fault-timeout", "64", true},
        {"--watchdog", "2000000", true},
        {"--hier-release", ""},
        {"--downgrade", ""},
        {"--stats", ""},
    };
}

std::vector<std::string>
argvOf(const std::vector<Flag> &flags)
{
    std::vector<std::string> args;
    for (const Flag &f : flags) {
        args.push_back(f.name);
        if (!f.value.empty())
            args.push_back(f.value);
    }
    return args;
}

/** Run hmgsim on `args` with its output discarded. */
Outcome
runHmgsim(const std::vector<std::string> &args)
{
    return inChild([&]() {
        const int devnull = open("/dev/null", O_WRONLY);
        dup2(devnull, STDOUT_FILENO);
        std::vector<char *> argv;
        argv.push_back(const_cast<char *>(HMG_HMGSIM));
        for (const std::string &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        execv(HMG_HMGSIM, argv.data());
        std::_Exit(127);
    });
}

/** Exit 0, or exit 1 with one fatal line that ends in its source
 *  location ("  @ <file>:<line>"). @return true when it was accepted. */
bool
expectContract(const std::vector<std::string> &args)
{
    const Outcome o = runHmgsim(args);
    std::string what = "hmgsim";
    for (const std::string &a : args)
        what += " '" + a + "'";
    what += ": " + o.err;
    EXPECT_TRUE(o.exited) << "killed by signal " << o.code << ": " << what;
    if (!o.exited)
        return false;
    if (o.code == 0) {
        EXPECT_EQ(o.err.find("fatal:"), std::string::npos) << what;
        return true;
    }
    EXPECT_EQ(o.code, 1) << what;
    static const std::regex located("fatal: [^\n]* @ [^\n]+:[0-9]+\n");
    EXPECT_TRUE(std::regex_match(o.err, located)) << what;
    return false;
}

TEST(CliFuzz, BaseCommandLineRuns)
{
    EXPECT_TRUE(expectContract(argvOf(baseFlags())));
}

TEST(CliFuzz, MalformedNumbersAreLocatedFatals)
{
    const std::vector<std::string> bad = {
        "0", "-1", "18446744073709551616", "1e308", "nan", "0x10", "",
    };
    std::vector<Flag> flags = baseFlags();
    int accepted = 0;
    int mutants = 0;
    for (const Flag &f : flags) {
        if (!f.numeric)
            continue;
        for (const std::string &v : bad) {
            std::vector<std::string> args = argvOf(flags);
            // The flag's value token follows its name.
            for (std::size_t i = 0; i + 1 < args.size(); ++i)
                if (args[i] == f.name)
                    args[i + 1] = v;
            accepted += expectContract(args);
            ++mutants;
        }
    }
    // 0 is a valid seed, fault seed and probability; nothing else here is.
    EXPECT_EQ(accepted, 4);
    EXPECT_EQ(mutants, 16 * 7);
}

TEST(CliFuzz, GeometryAtItsParseCeiling)
{
    // The ceiling, and the largest power of two under it: the values
    // that pass the parser but must still be refused (or run) cleanly,
    // in validation or when the tag store is mapped.
    int mutants = 0;
    for (const Flag &g : baseFlags()) {
        if (g.ceiling.empty())
            continue;
        std::vector<std::string> values = {g.ceiling};
        const double c = std::strtod(g.ceiling.c_str(), nullptr);
        unsigned long long pow2 = 1;
        while (static_cast<double>(pow2) * 2 <= c)
            pow2 *= 2;
        if (std::to_string(pow2) != g.ceiling)
            values.push_back(std::to_string(pow2));
        for (const std::string &v : values) {
            std::vector<Flag> flags = baseFlags();
            for (Flag &f : flags)
                if (f.name == g.name)
                    f.value = v;
            SCOPED_TRACE(g.name + " " + v);
            expectContract(argvOf(flags));
            ++mutants;
        }
    }
    EXPECT_GE(mutants, 10);
}

TEST(CliFuzz, SeededFlagMutations)
{
    const std::vector<Flag> base = baseFlags();
    const std::vector<std::string> unknown_forms = {"x", "=", "-", "upper",
                                                    "dash"};
    int accepted = 0;
    for (std::uint64_t cls = 0; cls < 5; ++cls) {
        Rng rng(seedOf("hmgsim", cls));
        for (int n = 0; n < 8; ++n) {
            std::vector<Flag> flags = base;
            const std::size_t i = rng.below(flags.size());
            std::vector<std::string> args;
            switch (cls) {
              case 0: // drop a flag and its value (not the scale: the
                      // default of 1 would be a full-size cell)
                if (flags[i].name != "--scale")
                    flags.erase(flags.begin() + static_cast<long>(i));
                args = argvOf(flags);
                break;
              case 1: // repeat a flag somewhere else
                flags.insert(flags.begin() +
                                 static_cast<long>(rng.below(flags.size())),
                             flags[i]);
                args = argvOf(flags);
                break;
              case 2: { // swap two flags, or a flag and its own value
                if (rng.chance(0.5) || flags[i].value.empty()) {
                    std::swap(flags[i], flags[rng.below(flags.size())]);
                    args = argvOf(flags);
                } else {
                    args = argvOf(flags);
                    for (std::size_t a = 0; a + 1 < args.size(); ++a)
                        if (args[a] == flags[i].name) {
                            std::swap(args[a], args[a + 1]);
                            break;
                        }
                }
                break;
              }
              case 3: { // an unknown spelling of a known flag
                Flag &f = flags[i];
                const std::string &form =
                    unknown_forms[rng.below(unknown_forms.size())];
                if (form == "x")
                    f.name += "x";
                else if (form == "=")
                    f.name += "=" + f.value;
                else if (form == "-")
                    f.name = "--";
                else if (form == "upper")
                    for (char &ch : f.name)
                        ch = static_cast<char>(std::toupper(ch));
                else
                    f.name = f.name.substr(1);
                args = argvOf(flags);
                break;
              }
              default: { // a value flag without its value, often last
                std::vector<std::size_t> valued;
                for (std::size_t k = 0; k < flags.size(); ++k)
                    if (!flags[k].value.empty())
                        valued.push_back(k);
                const std::size_t k = valued[rng.below(valued.size())];
                Flag f = flags[k];
                flags.erase(flags.begin() + static_cast<long>(k));
                f.value.clear();
                if (rng.chance(0.5))
                    flags.push_back(f);
                else
                    flags.insert(flags.begin() + static_cast<long>(
                                                     rng.below(flags.size())),
                                 f);
                args = argvOf(flags);
                break;
              }
            }
            SCOPED_TRACE("class " + std::to_string(cls) + " mutant " +
                         std::to_string(n));
            accepted += expectContract(args);
        }
    }
    // Dropped, repeated and reordered flags mostly still run.
    EXPECT_GT(accepted, 8);
}

} // namespace
} // namespace hmg
