/**
 * @file
 * Strict numeric parsing for command-line flags.
 *
 * The whole string must be consumed, the value must be in range, and a
 * failure is a one-line fatal naming the flag and exits 1 — never a
 * silent 0 the way atoi() would have it.
 */

#ifndef HMG_COMMON_CLI_HH
#define HMG_COMMON_CLI_HH

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "common/log.hh"

namespace hmg
{

inline std::uint64_t
parseU64(const char *flag, const char *s, std::uint64_t lo = 0,
         std::uint64_t hi = UINT64_MAX)
{
    if (*s == '\0' || *s == '-')
        hmg_fatal("%s wants an unsigned integer, got '%s'", flag, s);
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno == ERANGE || end == s || *end != '\0')
        hmg_fatal("%s wants an unsigned integer, got '%s'", flag, s);
    if (v < lo || v > hi)
        hmg_fatal("%s wants a value in [%llu, %llu], got '%s'", flag,
                  static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi), s);
    return v;
}

/** A decimal number: strtod's hexadecimal floats ("0x10" is 16) are
 *  refused like parseU64 refuses hexadecimal integers. */
inline double
parseF64(const char *flag, const char *s, double lo, double hi)
{
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(s, &end);
    if (errno == ERANGE || end == s || *end != '\0' || !std::isfinite(v) ||
        std::strpbrk(s, "xX"))
        hmg_fatal("%s wants a finite number, got '%s'", flag, s);
    if (v < lo || v > hi)
        hmg_fatal("%s wants a value in [%g, %g], got '%s'", flag, lo, hi,
                  s);
    return v;
}

} // namespace hmg

#endif // HMG_COMMON_CLI_HH
