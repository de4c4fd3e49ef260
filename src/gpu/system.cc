#include "gpu/system.hh"

#include <algorithm>
#include <cstdio>
#include <string>

#include "core/checker.hh"

namespace hmg
{

namespace
{

/** The geometry fields behind tagStoreBytes(), for its mapping error. */
std::string
tagStoreGeometry(const SystemConfig &cfg)
{
    char buf[320];
    std::snprintf(
        buf, sizeof(buf),
        "the tag store of %u L1s (l1Bytes %u, l1Ways %u), %u L2s "
        "(l2BytesPerGpu %llu / %u GPMs, l2Ways %u) and %u directories "
        "(dirEntriesPerGpm %u, dirWays %u) at cacheLineBytes %u",
        cfg.totalSms(), cfg.l1Bytes, cfg.l1Ways, cfg.totalGpms(),
        static_cast<unsigned long long>(cfg.l2BytesPerGpu), cfg.gpmsPerGpu,
        cfg.l2Ways, isHardwareProtocol(cfg.protocol) ? cfg.totalGpms() : 0,
        cfg.dirEntriesPerGpm, cfg.dirWays, cfg.cacheLineBytes);
    return buf;
}

} // namespace

std::uint64_t
System::tagStoreBytes(const SystemConfig &cfg)
{
    const std::uint64_t l1 = TagArray::storageBytes(
        cfg.l1Bytes, cfg.l1Ways, cfg.cacheLineBytes);
    const std::uint64_t l2 = TagArray::storageBytes(
        cfg.l2BytesPerGpm(), cfg.l2Ways, cfg.cacheLineBytes);
    const std::uint64_t dir =
        isHardwareProtocol(cfg.protocol)
            ? Directory::storageBytes(cfg.dirEntriesPerGpm, cfg.dirWays)
            : 0;
    return std::uint64_t{cfg.totalSms()} * l1 +
           std::uint64_t{cfg.totalGpms()} * (l2 + dir);
}

System::System(const SystemConfig &cfg)
    : cfg_(cfg), lps_(cfg_), pages_(cfg_, lps_.numLps()),
      mem_(lps_.numLps()), tracker_(lps_, cfg_.totalSms())
{
    cfg_.validate();

    // Map every tag array at once, before any cache is built (see
    // cache/tag_store.hh); the arrays then fill it exactly.
    tags_ = std::make_unique<TagStore>(tagStoreBytes(cfg_),
                                       tagStoreGeometry(cfg_));

    net_ = std::make_unique<Network>(lps_, cfg_);

    const bool with_dir = isHardwareProtocol(cfg_.protocol);
    for (GpmId g = 0; g < cfg_.totalGpms(); ++g)
        gpms_.push_back(std::make_unique<GpmNode>(lps_.engineOfGpm(g),
                                                  cfg_, g, with_dir, *tags_));

    // Every delivered message passes through the destination node's
    // ingress dispatch for per-class receive accounting.
    net_->setDeliveryHook([this](const Message &m, Tick at) {
        gpms_[m.dst]->ingress(m, at);
    });

    ctx_ = std::make_unique<SystemContext>(SystemContext{
        lps_, cfg_, *net_, pages_, mem_, tracker_, gpms_});

    model_ = makeCoherenceModel(*ctx_);
    if (cfg_.checkCoherence)
        model_ = std::make_unique<CoherenceChecker>(*ctx_,
                                                    std::move(model_));

    for (SmId s = 0; s < cfg_.totalSms(); ++s)
        sms_.push_back(std::make_unique<Sm>(*ctx_, *model_, s, *tags_));
    hmg_assert(tags_->used() == tags_->size());

    scheduler_ = std::make_unique<CtaScheduler>(*ctx_, *model_, sms_);
}

std::uint64_t
System::progressCounter() const
{
    std::uint64_t p = net_->messagesDelivered();
    for (const auto &sm : sms_)
        p += sm->opsExecuted();
    return p;
}

std::string
System::diagnostic() const
{
    Tick now = 0;
    for (std::uint32_t lp = 0; lp < lps_.numLps(); ++lp)
        now = std::max(now, lps_.engine(lp).now());
    std::string out;
    out += "  workload position: kernel " +
           std::to_string(scheduler_->kernelsLaunched()) + " launched, " +
           std::to_string(scheduler_->ctasRemaining()) +
           " CTAs unretired\n";
    lps_.dumpState(out);
    net_->dumpDiagnostic(out, now);
    return out;
}

void
System::reportStats(StatRecorder &r) const
{
    // GPM and SM stats are published only as sums: per GPU and in
    // total for GPMs, in total for SMs. Each reports into a fresh
    // recorder, so a key one of them writes twice panics before add()
    // sums the parts.
    std::vector<StatRecorder> per_gpu(cfg_.numGpus);
    StatRecorder gpm_total;
    for (const auto &gpm : gpms_) {
        StatRecorder part;
        gpm->reportStats(part);
        per_gpu[cfg_.gpuOf(gpm->id())].add(part);
        gpm_total.add(part);
    }
    for (std::uint32_t u = 0; u < cfg_.numGpus; ++u)
        r.record("gpu" + std::to_string(u), per_gpu[u]);
    r.record("total", gpm_total);
    StatRecorder sm_total;
    for (const auto &sm : sms_) {
        StatRecorder part;
        sm->reportStats(part);
        sm_total.add(part);
    }
    r.record("sm_total", sm_total);
    net_->reportStats(r, "noc");
    model_->reportStats(r);
    r.record("mem.pages_placed", static_cast<double>(pages_.pageCount()));
    r.record("engine.events",
             static_cast<double>(lps_.eventsExecuted()));
    lps_.reportStats(r, "pdes");
}

} // namespace hmg
