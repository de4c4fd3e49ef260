#include "replay.hh"

#include "cache/tag_array.hh"
#include "core/directory.hh"
#include "gpu/cta_scheduler.hh"
#include "mem/memory_state.hh"
#include "mem/page_table.hh"
#include "noc/network.hh"
#include "sim/engine.hh"
#include "spans.hh"

namespace hostbench
{

using namespace hmg;

namespace
{

bool
addressed(MemOpType t)
{
    return t == MemOpType::Load || t == MemOpType::Store ||
           t == MemOpType::Atomic;
}

/** Warp-chained event replay; each event schedules its warp's next op. */
struct EngineReplay
{
    const FlatTrace &f;
    Engine engine;
    std::vector<std::uint32_t> cursor;
    std::uint64_t sum = 0;

    explicit EngineReplay(const FlatTrace &ft)
        : f(ft), cursor(ft.warpBegin.begin(), ft.warpBegin.end() - 1)
    {
    }

    void
    step(std::uint32_t w)
    {
        const std::uint32_t i = cursor[w]++;
        if (i >= f.warpBegin[w + 1])
            return;
        const Access &a = f.accesses[i];
        sum += a.line;
        engine.schedule(Tick{a.delay} + 1, [this, w]() { step(w); });
    }
};

MsgType
requestOf(MemOpType t)
{
    switch (t) {
      case MemOpType::Store:
        return MsgType::WriteThrough;
      case MemOpType::Atomic:
        return MsgType::AtomicReq;
      default:
        return MsgType::ReadReq;
    }
}

} // namespace

FlatTrace
flatten(const trace::Trace &t, const SystemConfig &cfg)
{
    FlatTrace f;
    PageTable pages(cfg);
    const Addr line_mask = ~Addr{cfg.cacheLineBytes - 1};
    for (const auto &k : t.kernels) {
        f.kernelBegin.push_back(static_cast<std::uint32_t>(f.accesses.size()));
        const std::uint64_t n = k.ctas.size();
        for (std::uint64_t c = 0; c < n; ++c) {
            const GpmId gpm = CtaScheduler::ctaGpm(c, n, cfg.totalGpms());
            for (const auto &w : k.ctas[c].warps) {
                f.warpBegin.push_back(
                    static_cast<std::uint32_t>(f.accesses.size()));
                for (const auto &op : w.ops) {
                    if (!addressed(op.type))
                        continue;
                    const Addr line = op.addr & line_mask;
                    f.accesses.push_back({line, gpm, pages.touch(line, gpm),
                                          op.type, op.delay});
                }
            }
        }
    }
    f.warpBegin.push_back(static_cast<std::uint32_t>(f.accesses.size()));
    return f;
}

ReplayResult
replayEngine(const FlatTrace &f)
{
    EngineReplay r(f);
    const std::int64_t t0 = nowNs();
    for (std::uint32_t w = 0; w + 1 < f.warpBegin.size(); ++w)
        r.engine.schedule(0, [&r, w]() { r.step(w); });
    r.engine.run();
    return {r.engine.eventsExecuted(), nowNs() - t0, r.sum};
}

ReplayResult
replayNoc(const FlatTrace &f, const SystemConfig &cfg)
{
    // Requests go out in bounded batches that drain before the next, so
    // queues stay at the depths a running system sees rather than
    // growing with the trace.
    constexpr std::size_t kBatch = 256;
    Engine engine;
    Network net(engine, cfg);
    std::uint64_t sum = 0;
    const std::int64_t t0 = nowNs();
    std::size_t in_batch = 0;
    for (const Access &a : f.accesses) {
        if (a.src == a.home)
            continue;
        const MsgType req = requestOf(a.type);
        net.inject({.src = a.src,
                    .dst = a.home,
                    .type = req,
                    .addr = a.line,
                    .onArrival = [&net, &sum, a, req]() {
                        sum += a.line;
                        if (req == MsgType::WriteThrough)
                            return;
                        net.inject({.src = a.home,
                                    .dst = a.src,
                                    .type = req == MsgType::ReadReq
                                                ? MsgType::ReadResp
                                                : MsgType::AtomicResp,
                                    .addr = a.line,
                                    .onArrival = [&sum]() { ++sum; }});
                    }});
        if (++in_batch == kBatch) {
            engine.run();
            in_batch = 0;
        }
    }
    engine.run();
    return {net.messagesDelivered(), nowNs() - t0, sum};
}

ReplayResult
replayCache(const FlatTrace &f, const SystemConfig &cfg)
{
    std::vector<TagArray> l2;
    for (GpmId g = 0; g < cfg.totalGpms(); ++g)
        l2.push_back(TagArray::fromCapacity(cfg.l2BytesPerGpm(), cfg.l2Ways,
                                            cfg.cacheLineBytes));
    // Software coherence drops every L2 at each kernel boundary; the
    // hardware protocols keep their lines and invalidate per line.
    const bool bulk = !isHardwareProtocol(cfg.protocol);
    std::uint64_t sum = 0;
    std::size_t next_kernel = 0;
    const std::int64_t t0 = nowNs();
    for (std::size_t i = 0; i < f.accesses.size(); ++i) {
        while (next_kernel < f.kernelBegin.size() &&
               f.kernelBegin[next_kernel] == i) {
            ++next_kernel;
            if (bulk)
                for (auto &t : l2)
                    sum += t.invalidateAll();
        }
        const Access &a = f.accesses[i];
        TagArray &tags = l2[a.type == MemOpType::Atomic ? a.home : a.src];
        CacheLine *line = tags.lookup(a.line);
        if (!line && a.type != MemOpType::Store)
            line = tags.insert(a.line);
        if (line)
            sum += line->lru;
    }
    return {f.accesses.size(), nowNs() - t0, sum};
}

ReplayResult
replayDirectory(const FlatTrace &f, const SystemConfig &cfg)
{
    std::vector<Directory> dirs;
    for (GpmId g = 0; g < cfg.totalGpms(); ++g)
        dirs.emplace_back(cfg.dirEntriesPerGpm, cfg.dirWays,
                          cfg.dirLinesPerEntry * cfg.cacheLineBytes);
    std::uint64_t ops = 0, sum = 0;
    const std::int64_t t0 = nowNs();
    for (const Access &a : f.accesses) {
        if (a.src == a.home)
            continue;
        ++ops;
        Directory &dir = dirs[a.home];
        if (a.type == MemOpType::Load) {
            DirEntry *e = dir.allocate(a.line);
            if (cfg.gpuOf(a.src) == cfg.gpuOf(a.home))
                e->addGpm(cfg.localGpmOf(a.src));
            else
                e->addGpu(cfg.localGpuOf(cfg.gpuOf(a.src)));
            sum += e->sharerCount();
        } else if (DirEntry *e = dir.find(a.line)) {
            sum += e->sharerCount();
            dir.remove(a.line);
        }
    }
    return {ops, nowNs() - t0, sum};
}

ReplayResult
replayMem(const FlatTrace &f, const SystemConfig &cfg)
{
    PageTable pages(cfg);
    MemoryState mem;
    std::uint64_t sum = 0;
    const std::int64_t t0 = nowNs();
    for (const Access &a : f.accesses) {
        sum += pages.touch(a.line, a.src);
        if (a.type == MemOpType::Load)
            sum += mem.read(a.line);
        else
            mem.write(a.line, mem.allocateVersion());
    }
    return {f.accesses.size(), nowNs() - t0, sum};
}

} // namespace hostbench
