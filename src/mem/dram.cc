#include "mem/dram.hh"

namespace hmg
{

Dram::Dram(Engine &engine, const SystemConfig &cfg)
    : engine_(engine),
      channel_(cfg.dramPortBytesPerCycle()),
      latency_(cfg.dramLatency)
{
}

Tick
Dram::read(std::uint32_t bytes)
{
    ++reads_;
    return channel_.serialize(engine_.now(), bytes) + latency_;
}

Tick
Dram::write(std::uint32_t bytes)
{
    ++writes_;
    return channel_.serialize(engine_.now(), bytes) + latency_;
}

void
Dram::reportStats(StatRecorder &r, const std::string &prefix) const
{
    r.record(prefix + ".reads", static_cast<double>(reads_));
    r.record(prefix + ".writes", static_cast<double>(writes_));
    r.record(prefix + ".bytes", static_cast<double>(bytesTransferred()));
}

} // namespace hmg
