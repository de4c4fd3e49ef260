#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace hostbench
{

std::uint64_t
Tracer::begin(const std::string &name, std::uint64_t parent)
{
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.name = name;
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void
Tracer::end(std::uint64_t id)
{
    spans_[id - 1].endNs = nowNs();
}

std::string
Tracer::toJson() const
{
    const auto self = selfTimes(spans_);
    std::string out = "[\n";
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "  {\"id\": %llu, \"parent\": %llu, \"name\": \"",
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent));
        out += buf;
        out += s.name;
        std::snprintf(buf, sizeof buf,
                      "\", \"start_ns\": %lld, \"end_ns\": %lld, "
                      "\"self_ns\": %lld}%s\n",
                      static_cast<long long>(s.startNs),
                      static_cast<long long>(s.endNs),
                      static_cast<long long>(self.at(s.id)),
                      i + 1 < spans_.size() ? "," : "");
        out += buf;
    }
    out += "]\n";
    return out;
}

std::map<std::uint64_t, std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::map<std::uint64_t, const Span *> by_id;
    std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
        kids;
    for (const Span &s : spans)
        by_id[s.id] = &s;
    for (const Span &s : spans) {
        auto p = by_id.find(s.parent);
        if (p == by_id.end())
            continue;
        const Span &par = *p->second;
        const std::int64_t a = std::max(s.startNs, par.startNs);
        const std::int64_t b = std::min(s.endNs, par.endNs);
        if (b > a)
            kids[s.parent].emplace_back(a, b);
    }

    std::map<std::uint64_t, std::int64_t> self;
    for (const Span &s : spans) {
        auto &iv = kids[s.id];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t lo = 0, hi = 0;
        bool open = false;
        for (const auto &[a, b] : iv) {
            if (open && a <= hi) {
                hi = std::max(hi, b);
                continue;
            }
            if (open)
                covered += hi - lo;
            lo = a;
            hi = b;
            open = true;
        }
        if (open)
            covered += hi - lo;
        self[s.id] = s.durationNs() - covered;
    }
    return self;
}

int
selfTestSpans()
{
    // root [0,100) > a [10,40) > a1 [15,25); root > b [50,90) with two
    // overlapping children b1 [55,70), b2 [65,80); c [95,120) sticks out
    // of root and is clipped to [95,100).
    const std::vector<Span> tree = {
        {1, 0, "root", 0, 100}, {2, 1, "a", 10, 40},  {3, 2, "a1", 15, 25},
        {4, 1, "b", 50, 90},    {5, 4, "b1", 55, 70}, {6, 4, "b2", 65, 80},
        {7, 1, "c", 95, 120},
    };
    const auto self = selfTimes(tree);
    const std::map<std::uint64_t, std::int64_t> want = {
        {1, 100 - 30 - 40 - 5}, {2, 30 - 10}, {3, 10},
        {4, 40 - 25},           {5, 15},      {6, 15},
        {7, 25},
    };
    int bad = 0;
    for (const auto &[id, ns] : want) {
        if (self.at(id) != ns) {
            std::fprintf(stderr, "span %llu: self %lld, want %lld\n",
                         static_cast<unsigned long long>(id),
                         static_cast<long long>(self.at(id)),
                         static_cast<long long>(ns));
            ++bad;
        }
    }

    // A tree with nested, non-overlapping children: the self times of the
    // root and all its descendants add up to the root's duration.
    const std::vector<Span> flat = {
        {1, 0, "cell", 0, 1000},      {2, 1, "trace.make", 0, 100},
        {3, 1, "system.build", 100, 150}, {4, 1, "sim.run", 150, 900},
        {5, 4, "inner", 200, 300},    {6, 1, "stats.report", 900, 910},
    };
    std::int64_t sum = 0;
    for (const auto &[id, ns] : selfTimes(flat))
        sum += ns;
    if (sum != 1000) {
        std::fprintf(stderr, "self times sum to %lld, want 1000\n",
                     static_cast<long long>(sum));
        ++bad;
    }
    return bad;
}

} // namespace hostbench
