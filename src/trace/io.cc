#include "trace/io.hh"

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "common/log.hh"

namespace hmg::trace
{

namespace
{

char
opChar(MemOpType t)
{
    switch (t) {
      case MemOpType::Load:     return 'l';
      case MemOpType::Store:    return 's';
      case MemOpType::Atomic:   return 'a';
      case MemOpType::AcqFence: return 'F';
      case MemOpType::RelFence: return 'R';
    }
    return '?';
}

bool
opFromChar(char c, MemOpType &t)
{
    switch (c) {
      case 'l': t = MemOpType::Load; return true;
      case 's': t = MemOpType::Store; return true;
      case 'a': t = MemOpType::Atomic; return true;
      case 'F': t = MemOpType::AcqFence; return true;
      case 'R': t = MemOpType::RelFence; return true;
      default: return false;
    }
}

char
scopeChar(Scope s)
{
    switch (s) {
      case Scope::None: return '-';
      case Scope::Cta:  return 'c';
      case Scope::Gpu:  return 'g';
      case Scope::Sys:  return 's';
    }
    return '?';
}

bool
scopeFromChar(char c, Scope &s)
{
    switch (c) {
      case '-': s = Scope::None; return true;
      case 'c': s = Scope::Cta; return true;
      case 'g': s = Scope::Gpu; return true;
      case 's': s = Scope::Sys; return true;
      default: return false;
    }
}

} // namespace

void
save(const Trace &t, std::ostream &os)
{
    os << "hmgtrace 1\n";
    os << "name " << (t.name.empty() ? "unnamed" : t.name) << "\n";
    for (const auto &kernel : t.kernels) {
        os << "kernel "
           << (kernel.name.empty() ? "unnamed" : kernel.name) << " "
           << kernel.ctas.size() << "\n";
        for (const auto &cta : kernel.ctas) {
            os << "cta " << cta.warps.size() << "\n";
            for (const auto &warp : cta.warps) {
                os << "warp " << warp.ops.size() << "\n";
                for (const auto &op : warp.ops) {
                    os << opChar(op.type) << " " << scopeChar(op.scope)
                       << " " << std::hex << op.addr << std::dec << " "
                       << op.delay << " ";
                    if (!op.acq && !op.rel)
                        os << "-";
                    else {
                        if (op.acq)
                            os << "a";
                        if (op.rel)
                            os << "r";
                    }
                    os << "\n";
                }
            }
        }
    }
}

void
saveFile(const Trace &t, const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        hmg_fatal("cannot open '%s' for writing", path.c_str());
    save(t, os);
    if (!os)
        hmg_fatal("write error on '%s'", path.c_str());
}

namespace
{

/**
 * Reads an hmgtrace stream one record (line) at a time. Every record has
 * a fixed number of whitespace-separated fields, and every deviation is
 * fatal with the 1-based line it occurred on.
 */
class TraceReader
{
  public:
    TraceReader(std::istream &is, const std::string &origin)
        : is_(is), origin_(origin)
    {
    }

    [[noreturn]] void
    fail(const std::string &what) const
    {
        hmg_fatal("%s:%d: %s", origin_.c_str(), line_, what.c_str());
    }

    /** Read the next record into fields(). @return false at the end. */
    bool
    next()
    {
        if (!std::getline(is_, text_))
            return false;
        ++line_;
        if (text_.find('\0') != std::string::npos)
            fail("NUL byte in the trace");
        fields_.clear();
        std::istringstream ss(text_);
        for (std::string f; ss >> f;)
            fields_.push_back(std::move(f));
        return true;
    }

    /** Read a record that must be `<tag> ...` with `n` fields. */
    void
    expect(const char *tag, std::size_t n)
    {
        if (!next())
            fail(std::string("expected a '") + tag +
                 "' record, got the end of the stream");
        if (fields_.empty() || fields_[0] != tag)
            fail(std::string("expected a '") + tag + "' record");
        if (fields_.size() != n)
            fail(std::string("a '") + tag + "' record has " +
                 std::to_string(n) + " fields");
    }

    const std::vector<std::string> &fields() const { return fields_; }

    /** Field `i` as a number in base `base` no larger than `hi`. */
    std::uint64_t
    number(std::size_t i, int base, std::uint64_t hi, const char *what)
    {
        const std::string &f = fields_[i];
        std::uint64_t v = 0;
        for (const char c : f) {
            const int d = digitOf(c);
            if (d < 0 || d >= base)
                fail(std::string("bad ") + what + " '" + f + "'");
            if (v > (hi - static_cast<std::uint64_t>(d)) /
                        static_cast<std::uint64_t>(base))
                fail(std::string(what) + " '" + f + "' is out of range");
            v = v * static_cast<std::uint64_t>(base) +
                static_cast<std::uint64_t>(d);
        }
        return v;
    }

  private:
    static int
    digitOf(char c)
    {
        if (c >= '0' && c <= '9')
            return c - '0';
        if (c >= 'a' && c <= 'f')
            return c - 'a' + 10;
        if (c >= 'A' && c <= 'F')
            return c - 'A' + 10;
        return -1;
    }

    std::istream &is_;
    const std::string &origin_;
    std::string text_;
    std::vector<std::string> fields_;
    int line_ = 0;
};

} // namespace

Trace
load(std::istream &is, const std::string &origin)
{
    TraceReader in(is, origin);
    in.expect("hmgtrace", 2);
    if (in.fields()[1] != "1")
        in.fail("not an hmgtrace v1 stream");

    Trace t;
    in.expect("name", 2);
    t.name = in.fields()[1];

    // Header counts are untrusted: each vector grows as its records
    // parse, so a count the stream cannot back ends in a located fatal
    // instead of a huge up-front allocation.
    while (in.next()) {
        if (in.fields().empty() || in.fields()[0] != "kernel")
            in.fail("expected a 'kernel' record");
        if (in.fields().size() != 3)
            in.fail("a 'kernel' record has 3 fields");
        Kernel kernel;
        kernel.name = in.fields()[1];
        const std::uint64_t num_ctas =
            in.number(2, 10, UINT64_MAX, "CTA count");
        for (std::uint64_t c = 0; c < num_ctas; ++c) {
            Cta &cta = kernel.ctas.emplace_back();
            in.expect("cta", 2);
            const std::uint64_t num_warps =
                in.number(1, 10, UINT64_MAX, "warp count");
            for (std::uint64_t w = 0; w < num_warps; ++w) {
                Warp &warp = cta.warps.emplace_back();
                in.expect("warp", 2);
                const std::uint64_t num_ops =
                    in.number(1, 10, UINT64_MAX, "op count");
                for (std::uint64_t i = 0; i < num_ops; ++i) {
                    if (!in.next())
                        in.fail("expected an op record, got the end of "
                                "the stream");
                    const auto &f = in.fields();
                    if (f.size() != 5)
                        in.fail("an op record has 5 fields: op scope "
                                "addr delay flags");
                    MemOp op;
                    if (f[0].size() != 1 || !opFromChar(f[0][0], op.type))
                        in.fail("unknown op '" + f[0] + "'");
                    if (f[1].size() != 1 ||
                        !scopeFromChar(f[1][0], op.scope))
                        in.fail("unknown scope '" + f[1] + "'");
                    op.addr = in.number(2, 16, UINT64_MAX, "address");
                    op.delay = static_cast<std::uint32_t>(
                        in.number(3, 10, UINT32_MAX, "delay"));
                    const std::string &flags = f[4];
                    if (flags != "-" && flags != "a" && flags != "r" &&
                        flags != "ar")
                        in.fail("bad flags '" + flags +
                                "' (one of -, a, r, ar)");
                    op.acq = flags.find('a') != std::string::npos ||
                             op.type == MemOpType::AcqFence;
                    op.rel = flags.find('r') != std::string::npos ||
                             op.type == MemOpType::RelFence;
                    warp.ops.push_back(op);
                }
            }
        }
        t.kernels.push_back(std::move(kernel));
    }
    if (t.kernels.empty())
        in.fail("no kernels");
    return t;
}

Trace
loadFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        hmg_fatal("cannot open '%s'", path.c_str());
    return load(is, path);
}

} // namespace hmg::trace
