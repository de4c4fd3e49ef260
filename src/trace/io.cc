#include "trace/io.hh"

#include <fstream>
#include <iostream>
#include <sstream>

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

MemOpType
opFromChar(char c)
{
    switch (c) {
      case 'l': return MemOpType::Load;
      case 's': return MemOpType::Store;
      case 'a': return MemOpType::Atomic;
      case 'F': return MemOpType::AcqFence;
      case 'R': return MemOpType::RelFence;
      default:
        hmg_fatal("trace: unknown op '%c'", c);
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

Scope
scopeFromChar(char c)
{
    switch (c) {
      case '-': return Scope::None;
      case 'c': return Scope::Cta;
      case 'g': return Scope::Gpu;
      case 's': return Scope::Sys;
      default:
        hmg_fatal("trace: unknown scope '%c'", c);
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

Trace
load(std::istream &is)
{
    std::string magic;
    int version = 0;
    if (!(is >> magic >> version) || magic != "hmgtrace" || version != 1)
        hmg_fatal("not an hmgtrace v1 stream");

    Trace t;
    std::string tok;
    if (!(is >> tok) || tok != "name" || !(is >> t.name))
        hmg_fatal("trace: missing name header");

    // Header counts are untrusted: each vector grows as its records
    // parse, so a count the stream cannot back ends in a malformed-line
    // fatal instead of a huge up-front allocation.
    while (is >> tok) {
        if (tok != "kernel")
            hmg_fatal("trace: expected 'kernel', got '%s'", tok.c_str());
        Kernel kernel;
        std::size_t num_ctas = 0;
        if (!(is >> kernel.name >> num_ctas))
            hmg_fatal("trace: malformed kernel header");
        for (std::size_t c = 0; c < num_ctas; ++c) {
            Cta &cta = kernel.ctas.emplace_back();
            std::size_t num_warps = 0;
            if (!(is >> tok) || tok != "cta" || !(is >> num_warps))
                hmg_fatal("trace: malformed cta header");
            for (std::size_t w = 0; w < num_warps; ++w) {
                Warp &warp = cta.warps.emplace_back();
                std::size_t num_ops = 0;
                if (!(is >> tok) || tok != "warp" || !(is >> num_ops))
                    hmg_fatal("trace: malformed warp header");
                for (std::size_t i = 0; i < num_ops; ++i) {
                    std::string op_s, scope_s, flags;
                    Addr addr = 0;
                    std::uint32_t delay = 0;
                    if (!(is >> op_s >> scope_s >> std::hex >> addr >>
                          std::dec >> delay >> flags) ||
                        op_s.size() != 1 || scope_s.size() != 1)
                        hmg_fatal("trace: malformed op line");
                    MemOp op;
                    op.type = opFromChar(op_s[0]);
                    op.scope = scopeFromChar(scope_s[0]);
                    op.addr = addr;
                    op.delay = delay;
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
        hmg_fatal("trace: no kernels");
    return t;
}

Trace
loadFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        hmg_fatal("cannot open '%s'", path.c_str());
    return load(is);
}

} // namespace hmg::trace
