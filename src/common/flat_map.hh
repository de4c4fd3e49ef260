/**
 * @file
 * The simulator's hash map, FlatMap.
 *
 * One (config, seed) must always give the same statistics. Hash-map
 * iteration order would break that: it follows the hash, the capacity
 * and the insert/erase history, not simulated time. A FlatMap cannot be
 * iterated. There is no begin()/end() and no iterator type, so hash
 * order cannot reach simulated behaviour. The hash is fixed (no
 * per-process seed), so even the table layout is the same in every run.
 *
 * FlatMap is open-addressed with linear probing. Erase shifts the rest
 * of the probe run back, so no tombstones build up. A map allocates
 * nothing until its first insert, and it doubles when an insert would
 * push the load past 3/4.
 *
 * Unlike in a node-based map, a pointer returned by find() or
 * tryEmplace() is invalidated by the next tryEmplace(), operator[] or
 * erase() on the same map. Move a value out before an erase that has
 * to outlive it.
 */

#ifndef HMG_COMMON_FLAT_MAP_HH
#define HMG_COMMON_FLAT_MAP_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace hmg
{

/** Fixed hash of an integer key: the MurmurHash3 64-bit finalizer. */
constexpr std::uint64_t
flatHash(std::uint64_t k)
{
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ULL;
    k ^= k >> 33;
    return k;
}

/**
 * Fixed hash of a byte-string key: one multiply per 8-byte word
 * (FxHash), then the finalizer. Word-wise, because hmgcheck's keys are
 * whole ~1.8 KB model states.
 */
inline std::uint64_t
flatHash(std::string_view s)
{
    constexpr std::uint64_t kMul = 0x517cc1b727220a95ULL;
    std::uint64_t h = s.size();
    std::size_t i = 0;
    for (; i + 8 <= s.size(); i += 8) {
        std::uint64_t w = 0;
        std::memcpy(&w, s.data() + i, 8);
        h = (std::rotl(h, 5) ^ w) * kMul;
    }
    if (i < s.size()) {
        std::uint64_t tail = 0;
        std::memcpy(&tail, s.data() + i, s.size() - i);
        h = (std::rotl(h, 5) ^ tail) * kMul;
    }
    return flatHash(h);
}

/** Open-addressed hash map with no iteration API. */
template <typename K, typename V>
class FlatMap
{
    static_assert(std::is_integral_v<K> || std::is_same_v<K, std::string>,
                  "FlatMap keys are integers or byte strings");

  public:
    /** The value stored under `key`, or null. */
    const V *
    find(const K &key) const
    {
        if (size_ == 0)
            return nullptr;
        const Slot &s = slots_[probe(key)];
        return s.used ? &s.value : nullptr;
    }

    V *
    find(const K &key)
    {
        return const_cast<V *>(std::as_const(*this).find(key));
    }

    /**
     * Insert `key` with a value built from `args`, unless it is present.
     * @return the key's value, and whether this call inserted it.
     */
    template <typename... Args>
    std::pair<V *, bool>
    tryEmplace(const K &key, Args &&...args)
    {
        std::size_t i = 0;
        if (!slots_.empty()) {
            i = probe(key);
            if (slots_[i].used)
                return {&slots_[i].value, false};
        }
        if ((size_ + 1) * 4 > slots_.size() * 3) {
            grow();
            i = probe(key);
        }
        Slot &s = slots_[i];
        s.key = key;
        s.value = V(std::forward<Args>(args)...);
        s.used = true;
        ++size_;
        return {&s.value, true};
    }

    /** The value under `key`, default-constructed on first use. */
    V &operator[](const K &key) { return *tryEmplace(key).first; }

    /** Remove `key`. @return whether it was present. */
    bool
    erase(const K &key)
    {
        if (size_ == 0)
            return false;
        std::size_t hole = probe(key);
        if (!slots_[hole].used)
            return false;
        // Pull each later member of the probe run whose home slot is not
        // cyclically in (hole, j] back into the hole, so every key stays
        // reachable from its home without tombstones.
        for (std::size_t j = next(hole); slots_[j].used; j = next(j)) {
            const std::size_t dist_home = (j - home(slots_[j].key)) & mask();
            const std::size_t dist_hole = (j - hole) & mask();
            if (dist_home >= dist_hole) {
                slots_[hole] = std::move(slots_[j]);
                hole = j;
            }
        }
        slots_[hole] = Slot{};
        --size_;
        return true;
    }

    std::size_t size() const { return size_; }

    /** Remove every entry and free the table. */
    void
    clear()
    {
        slots_ = std::vector<Slot>();
        size_ = 0;
    }

  private:
    static constexpr std::size_t kMinSlots = 8;

    struct Slot
    {
        K key{};
        V value{};
        bool used = false;
    };

    std::size_t mask() const { return slots_.size() - 1; }
    std::size_t next(std::size_t i) const { return (i + 1) & mask(); }
    std::size_t home(const K &key) const { return flatHash(key) & mask(); }

    /** Slot holding `key`, or the empty slot that ends its probe run. */
    std::size_t
    probe(const K &key) const
    {
        std::size_t i = home(key);
        while (slots_[i].used && slots_[i].key != key)
            i = next(i);
        return i;
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_ = std::vector<Slot>(old.empty() ? kMinSlots : old.size() * 2);
        for (Slot &s : old)
            if (s.used)
                slots_[probe(s.key)] = std::move(s);
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
};

} // namespace hmg

#endif // HMG_COMMON_FLAT_MAP_HH
