#include "mem/address_map.hh"

#include "common/intmath.hh"
#include "common/log.hh"

namespace hmg
{

AddressMap::AddressMap(const SystemConfig &cfg, const PageTable &pages)
    : cfg_(cfg),
      pages_(pages),
      line_shift_(floorLog2(cfg.cacheLineBytes)),
      line_mask_(cfg.cacheLineBytes - 1),
      sector_mask_(std::uint64_t{cfg.cacheLineBytes} * cfg.dirLinesPerEntry
                   - 1),
      page_mask_(cfg.osPageBytes - 1)
{
}

GpmId
AddressMap::systemHome(Addr a) const
{
    return pages_.homeOf(a);
}

GpmId
AddressMap::gpuHome(GpuId gpu, Addr a) const
{
    GpmId sys_home = systemHome(a);
    return cfg_.gpmId(gpu, cfg_.localGpmOf(sys_home));
}

GpmId
AddressMap::nodeHome(NodeId node, Addr a) const
{
    GpmId sys_home = systemHome(a);
    GpuId gpu = cfg_.gpuId(node, cfg_.localGpuOf(cfg_.gpuOf(sys_home)));
    return cfg_.gpmId(gpu, cfg_.localGpmOf(sys_home));
}

} // namespace hmg
