/**
 * @file
 * Trace (de)serialization.
 *
 * A simple line-oriented text format so traces can be generated once,
 * inspected, edited, versioned, or produced by external tools (e.g. a
 * real-trace converter) and replayed:
 *
 *   hmgtrace 1
 *   name <trace-name>
 *   kernel <kernel-name> <num-ctas>
 *   cta <num-warps>
 *   warp <num-ops>
 *   <op> <scope> <addr-hex> <delay> <flags>
 *
 * where <op> is one of l/s/a/F/R (load, store, atomic, acquire fence,
 * release fence), <scope> is -/c/g/s (none/cta/gpu/sys), <addr-hex> is
 * hex digits with no prefix, <delay> is decimal and <flags> is a
 * (acquire), r (release), ar, or '-'.
 *
 * One record per line, each with exactly its fields. The loader trusts
 * nothing: a malformed record, a count the stream cannot back, a number
 * out of range or a NUL byte is a fatal error naming the stream and the
 * line (`<origin>:<line>: ...`).
 */

#ifndef HMG_TRACE_IO_HH
#define HMG_TRACE_IO_HH

#include <iosfwd>
#include <string>

#include "trace/trace.hh"

namespace hmg::trace
{

/** Serialize `t` to `os`. */
void save(const Trace &t, std::ostream &os);

/** Serialize `t` to `path`; fatal on I/O failure. */
void saveFile(const Trace &t, const std::string &path);

/** Parse a trace from `is`, called `origin` in its errors; fatal on
 *  malformed input. */
Trace load(std::istream &is, const std::string &origin = "<hmgtrace>");

/** Parse a trace from `path`; fatal on I/O failure. */
Trace loadFile(const std::string &path);

} // namespace hmg::trace

#endif // HMG_TRACE_IO_HH
