#include "cache/tag_array.hh"

#include "common/intmath.hh"
#include "common/log.hh"

namespace hmg
{

namespace
{

std::uint64_t
setsOf(std::uint64_t capacity_bytes, std::uint32_t ways,
       std::uint32_t line_bytes)
{
    const std::uint64_t lines = capacity_bytes / line_bytes;
    hmg_assert(ways > 0 && lines % ways == 0);
    return lines / ways;
}

} // namespace

TagArray::TagArray(std::uint64_t num_sets, std::uint32_t ways,
                   std::uint32_t line_bytes)
    : line_bytes_(line_bytes),
      lines_(num_sets, ways, floorLog2(line_bytes))
{
    hmg_assert(isPowerOf2(line_bytes));
}

TagArray::TagArray(std::uint64_t num_sets, std::uint32_t ways,
                   std::uint32_t line_bytes, TagStore &store)
    : line_bytes_(line_bytes),
      lines_(num_sets, ways, floorLog2(line_bytes), store)
{
    hmg_assert(isPowerOf2(line_bytes));
}

TagArray
TagArray::fromCapacity(std::uint64_t capacity_bytes, std::uint32_t ways,
                       std::uint32_t line_bytes)
{
    return TagArray(setsOf(capacity_bytes, ways, line_bytes), ways,
                    line_bytes);
}

TagArray
TagArray::fromCapacity(std::uint64_t capacity_bytes, std::uint32_t ways,
                       std::uint32_t line_bytes, TagStore &store)
{
    return TagArray(setsOf(capacity_bytes, ways, line_bytes), ways,
                    line_bytes, store);
}

std::uint64_t
TagArray::storageBytes(std::uint64_t capacity_bytes, std::uint32_t ways,
                       std::uint32_t line_bytes)
{
    return SetAssoc<CacheLine, &CacheLine::addr>::storageBytes(
        setsOf(capacity_bytes, ways, line_bytes), ways);
}

std::uint64_t
TagArray::invalidateRange(Addr base_addr, std::uint64_t bytes)
{
    std::uint64_t n = 0;
    for (Addr a = base_addr; a < base_addr + bytes; a += line_bytes_)
        if (invalidate(a))
            ++n;
    return n;
}

} // namespace hmg
