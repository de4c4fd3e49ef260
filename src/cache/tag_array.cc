#include "cache/tag_array.hh"

#include "common/intmath.hh"
#include "common/log.hh"

namespace hmg
{

TagArray::TagArray(std::uint64_t num_sets, std::uint32_t ways,
                   std::uint32_t line_bytes)
    : line_bytes_(line_bytes),
      lines_(num_sets, ways, floorLog2(line_bytes))
{
    hmg_assert(isPowerOf2(line_bytes));
}

TagArray
TagArray::fromCapacity(std::uint64_t capacity_bytes, std::uint32_t ways,
                       std::uint32_t line_bytes)
{
    std::uint64_t lines = capacity_bytes / line_bytes;
    hmg_assert(ways > 0 && lines % ways == 0);
    return TagArray(lines / ways, ways, line_bytes);
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
