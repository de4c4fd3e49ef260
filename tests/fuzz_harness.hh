/**
 * @file
 * The forked-child harness shared by the seeded parser fuzz tests
 * (topology_fuzz_test, trace_fuzz_test). A parser rejects bad input
 * with a fatal error that exits the process, so each mutant runs in a
 * child whose stderr is captured: a rejection, an acceptance and a
 * crash (a signal, or a sanitizer report) are then all observable.
 */

#ifndef HMG_TESTS_FUZZ_HARNESS_HH
#define HMG_TESTS_FUZZ_HARNESS_HH

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

namespace hmg::fuzz
{

/** How a child run ended: its exit code (or signal) and its stderr. */
struct Outcome
{
    bool exited = false;
    int code = 0;
    std::string err;
};

/** Run `body` in a forked child that exits 0 when it returns. */
inline Outcome
inChild(const std::function<void()> &body)
{
    std::fflush(nullptr);
    int fds[2];
    if (pipe(fds) != 0)
        ADD_FAILURE() << "pipe failed";
    const pid_t pid = fork();
    if (pid == 0) {
        close(fds[0]);
        dup2(fds[1], STDERR_FILENO);
        close(fds[1]);
        body();
        std::_Exit(0);
    }
    close(fds[1]);
    Outcome o;
    char buf[512];
    ssize_t n;
    while ((n = read(fds[0], buf, sizeof(buf))) > 0)
        o.err.append(buf, static_cast<std::size_t>(n));
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    o.exited = WIFEXITED(status);
    o.code = o.exited ? WEXITSTATUS(status) : WTERMSIG(status);
    return o;
}

/** The parser's location prefix "fatal: <origin>:<line>: ", with the
 *  line number, or 0 when `err` does not start with one. */
inline int
parserLine(const std::string &err, const std::string &origin)
{
    const std::string head = "fatal: " + origin + ":";
    if (err.rfind(head, 0) != 0)
        return 0;
    std::size_t end = head.size();
    while (end < err.size() && std::isdigit(static_cast<unsigned char>(
                                   err[end])))
        ++end;
    if (end == head.size() || err.compare(end, 2, ": ") != 0)
        return 0;
    return std::atoi(err.c_str() + head.size());
}

/** A seed per (input name, mutation class), so adding a class or an
 *  input never shifts another's mutants. */
inline std::uint64_t
seedOf(const char *name, std::uint64_t cls)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char *p = name; *p; ++p)
        h = (h ^ static_cast<unsigned char>(*p)) * 0x100000001b3ull;
    return h ^ (cls * 0x9e3779b97f4a7c15ull);
}

} // namespace hmg::fuzz

#endif // HMG_TESTS_FUZZ_HARNESS_HH
