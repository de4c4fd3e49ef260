#include "common/topology.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

#include "common/log.hh"

namespace hmg
{

namespace
{

/**
 * Minimal strict JSON reader for the topology format: objects of
 * number / string members plus the two nested sections ("link",
 * "memory"). No external dependency, no silent recovery — every
 * deviation is fatal with the 1-based line it occurred on. The scan
 * stops at the terminating NUL of the text, so a NUL byte inside it is
 * refused up front instead of ending the file early.
 */
class JsonScanner
{
  public:
    JsonScanner(const std::string &text, const std::string &origin)
        : p_(text.c_str()), origin_(origin)
    {
        const std::size_t nul = text.find('\0');
        if (nul != std::string::npos) {
            line_ += static_cast<int>(
                std::count(text.begin(), text.begin() + nul, '\n'));
            fail("NUL byte in the topology text");
        }
    }

    [[noreturn]] void
    fail(const std::string &what) const
    {
        hmg_fatal("%s:%d: %s", origin_.c_str(), line_, what.c_str());
    }

    void
    ws()
    {
        while (*p_ == ' ' || *p_ == '\t' || *p_ == '\r' || *p_ == '\n') {
            if (*p_ == '\n')
                ++line_;
            ++p_;
        }
    }

    bool
    eat(char c)
    {
        ws();
        if (*p_ != c)
            return false;
        ++p_;
        return true;
    }

    void
    expect(char c)
    {
        if (!eat(c))
            fail(std::string("expected '") + c + "', got '" +
                 (*p_ ? std::string(1, *p_) : std::string("<eof>")) +
                 "'");
    }

    bool atEnd()
    {
        ws();
        return *p_ == '\0';
    }

    std::string
    parseString()
    {
        expect('"');
        std::string s;
        while (*p_ != '"') {
            if (*p_ == '\0' || *p_ == '\n')
                fail("unterminated string");
            if (*p_ == '\\')
                fail("escape sequences are not used in topology specs");
            s += *p_++;
        }
        ++p_;
        return s;
    }

    double
    parseNumber(const std::string &key)
    {
        ws();
        char *end = nullptr;
        const double v = std::strtod(p_, &end);
        if (end == p_ || !std::isfinite(v))
            fail("key \"" + key + "\" wants a finite number");
        p_ = end;
        return v;
    }

    /** A strictly positive integral count (tier sizes, entry counts). */
    std::uint64_t
    parseCount(const std::string &key, std::uint64_t hi)
    {
        const double v = parseNumber(key);
        if (v < 1.0 || v != std::floor(v))
            fail("key \"" + key + "\" wants a positive integer (a "
                 "zero-sized or fractional tier makes no machine)");
        if (v > static_cast<double>(hi))
            fail("key \"" + key + "\" exceeds the supported maximum " +
                 std::to_string(hi));
        return static_cast<std::uint64_t>(v);
    }

    /** A strictly positive rate/latency figure. */
    double
    parseRate(const std::string &key)
    {
        const double v = parseNumber(key);
        if (v <= 0.0)
            fail("key \"" + key + "\" wants a positive value");
        return v;
    }

    /**
     * Iterate the members of one JSON object, calling handle(key) with
     * the scanner positioned at the value. handle must consume it. A
     * key repeated within one object is fatal: the last value would
     * silently win.
     */
    template <typename Fn>
    void
    parseObject(Fn &&handle)
    {
        expect('{');
        if (eat('}'))
            return;
        std::vector<std::string> keys;
        for (;;) {
            const std::string key = parseString();
            if (std::find(keys.begin(), keys.end(), key) != keys.end())
                fail("duplicate key \"" + key + "\"");
            keys.push_back(key);
            expect(':');
            handle(key);
            if (eat(','))
                continue;
            expect('}');
            return;
        }
    }

  private:
    const char *p_;
    std::string origin_;
    int line_ = 1;
};

} // namespace

void
Topology::applyTo(SystemConfig &cfg) const
{
    cfg.numNodes = nodes;
    cfg.numGpus = totalGpus();
    cfg.gpmsPerGpu = gpmsPerGpu;
    cfg.smsPerGpu = smsPerGpu;
    cfg.interGpmGBpsPerGpu = intraGpuGBps;
    cfg.interGpuGBpsPerLink = interGpuGBps;
    cfg.interNodeGBpsPerLink = interNodeGBps;
    cfg.intraGpuHopLatency = intraGpuHopLatency;
    cfg.interGpuHopLatency = interGpuHopLatency;
    cfg.interNodeHopLatency = interNodeHopLatency;
    cfg.l2BytesPerGpu = l2MBPerGpu * 1024 * 1024;
    cfg.dirEntriesPerGpm = dirEntriesPerGpm;
    cfg.dramGBpsPerGpu = dramGBpsPerGpu;
    cfg.validate();
}

Topology
Topology::fromConfig(const SystemConfig &cfg)
{
    Topology t;
    t.nodes = cfg.numNodes;
    t.gpusPerNode = cfg.gpusPerNode();
    t.gpmsPerGpu = cfg.gpmsPerGpu;
    t.smsPerGpu = cfg.smsPerGpu;
    t.intraGpuGBps = cfg.interGpmGBpsPerGpu;
    t.interGpuGBps = cfg.interGpuGBpsPerLink;
    t.interNodeGBps = cfg.interNodeGBpsPerLink;
    t.intraGpuHopLatency = cfg.intraGpuHopLatency;
    t.interGpuHopLatency = cfg.interGpuHopLatency;
    t.interNodeHopLatency = cfg.interNodeHopLatency;
    t.l2MBPerGpu = cfg.l2BytesPerGpu / (1024 * 1024);
    t.dirEntriesPerGpm = cfg.dirEntriesPerGpm;
    t.dramGBpsPerGpu = cfg.dramGBpsPerGpu;
    return t;
}

Topology
Topology::parseJson(const std::string &text, const std::string &origin)
{
    Topology t;
    JsonScanner s(text, origin);

    auto parseLink = [&]() {
        s.parseObject([&](const std::string &k) {
            if (k == "intraGpuGBps")
                t.intraGpuGBps = s.parseRate(k);
            else if (k == "interGpuGBps")
                t.interGpuGBps = s.parseRate(k);
            else if (k == "interNodeGBps")
                t.interNodeGBps = s.parseRate(k);
            else if (k == "intraGpuHopLatency")
                t.intraGpuHopLatency = s.parseCount(k, 1u << 30);
            else if (k == "interGpuHopLatency")
                t.interGpuHopLatency = s.parseCount(k, 1u << 30);
            else if (k == "interNodeHopLatency")
                t.interNodeHopLatency = s.parseCount(k, 1u << 30);
            else
                s.fail("unknown \"link\" key \"" + k + "\"");
        });
    };
    auto parseMemory = [&]() {
        s.parseObject([&](const std::string &k) {
            if (k == "l2MBPerGpu")
                t.l2MBPerGpu = s.parseCount(k, 1u << 20);
            else if (k == "dirEntriesPerGpm")
                t.dirEntriesPerGpm = static_cast<std::uint32_t>(
                    s.parseCount(k, UINT32_MAX));
            else if (k == "dramGBpsPerGpu")
                t.dramGBpsPerGpu = s.parseRate(k);
            else
                s.fail("unknown \"memory\" key \"" + k + "\"");
        });
    };

    s.parseObject([&](const std::string &k) {
        if (k == "name" || k == "comment")
            s.parseString(); // documentation only
        else if (k == "nodes")
            t.nodes = static_cast<std::uint32_t>(s.parseCount(k, 32));
        else if (k == "gpusPerNode")
            t.gpusPerNode =
                static_cast<std::uint32_t>(s.parseCount(k, 1024));
        else if (k == "gpmsPerGpu")
            t.gpmsPerGpu =
                static_cast<std::uint32_t>(s.parseCount(k, 1024));
        else if (k == "smsPerGpu")
            t.smsPerGpu =
                static_cast<std::uint32_t>(s.parseCount(k, 1u << 20));
        else if (k == "link")
            parseLink();
        else if (k == "memory")
            parseMemory();
        else
            s.fail("unknown topology key \"" + k + "\"");
    });
    if (!s.atEnd())
        s.fail("trailing characters after the topology object");
    return t;
}

Topology
Topology::loadFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        hmg_fatal("cannot open topology file '%s'", path.c_str());
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return parseJson(text, path);
}

std::string
Topology::toJson() const
{
    std::ostringstream os;
    os << "{\n"
       << "  \"nodes\": " << nodes << ",\n"
       << "  \"gpusPerNode\": " << gpusPerNode << ",\n"
       << "  \"gpmsPerGpu\": " << gpmsPerGpu << ",\n"
       << "  \"smsPerGpu\": " << smsPerGpu << ",\n"
       << "  \"link\": {\n"
       << "    \"intraGpuGBps\": " << intraGpuGBps << ",\n"
       << "    \"interGpuGBps\": " << interGpuGBps << ",\n"
       << "    \"interNodeGBps\": " << interNodeGBps << ",\n"
       << "    \"intraGpuHopLatency\": " << intraGpuHopLatency << ",\n"
       << "    \"interGpuHopLatency\": " << interGpuHopLatency << ",\n"
       << "    \"interNodeHopLatency\": " << interNodeHopLatency << "\n"
       << "  },\n"
       << "  \"memory\": {\n"
       << "    \"l2MBPerGpu\": " << l2MBPerGpu << ",\n"
       << "    \"dirEntriesPerGpm\": " << dirEntriesPerGpm << ",\n"
       << "    \"dramGBpsPerGpu\": " << dramGBpsPerGpu << "\n"
       << "  }\n"
       << "}\n";
    return os.str();
}

} // namespace hmg
