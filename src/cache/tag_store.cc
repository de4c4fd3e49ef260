#include "cache/tag_store.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/log.hh"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace hmg
{

namespace
{

std::uint64_t
roundUp(std::uint64_t v, std::uint64_t to)
{
    return (v + to - 1) / to * to;
}

} // namespace

TagStore::TagStore(std::uint64_t bytes, const std::string &what)
    : size_(bytes)
{
    if (bytes == 0)
        return;
    // Large stores are aligned to a huge page and span whole ones, so
    // every byte of them can sit on one; map a huge page extra and trim.
    const bool huge = bytes >= kHugePage;
    const std::uint64_t page =
        huge ? kHugePage : static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
    mapped_ = roundUp(bytes, page);
    const std::uint64_t ask = mapped_ + (huge ? kHugePage : 0);
    void *p = mmap(nullptr, ask, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        hmg_fatal("cannot map %llu bytes for %s: %s",
                  static_cast<unsigned long long>(bytes), what.c_str(),
                  std::strerror(errno));
    auto *start = static_cast<std::byte *>(p);
    base_ = start;
    if (huge) {
        const auto addr = reinterpret_cast<std::uintptr_t>(start);
        base_ = start + (roundUp(addr, kHugePage) - addr);
        if (base_ != start)
            munmap(start, static_cast<std::size_t>(base_ - start));
        std::byte *end = base_ + mapped_;
        if (end != start + ask)
            munmap(end, static_cast<std::size_t>(start + ask - end));
#ifdef MADV_HUGEPAGE
        // Advice only: a kernel without transparent huge pages refuses
        // it and the store stays on small pages.
        madvise(base_, mapped_, MADV_HUGEPAGE);
#endif
    }
}

TagStore::~TagStore()
{
    if (!base_)
        return;
#if defined(__SANITIZE_ADDRESS__)
    ASAN_UNPOISON_MEMORY_REGION(base_, mapped_);
#endif
    munmap(base_, mapped_);
}

void *
TagStore::take(std::uint64_t bytes)
{
    const std::uint64_t region = regionBytes(bytes);
    hmg_assert(region <= size_ - used_);
    std::byte *p = base_ + used_;
    used_ += region;
#if defined(__SANITIZE_ADDRESS__)
    ASAN_POISON_MEMORY_REGION(p + bytes, region - bytes);
#endif
    return p;
}

} // namespace hmg
