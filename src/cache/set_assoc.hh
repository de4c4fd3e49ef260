/**
 * @file
 * The set-associative core shared by the L1 and L2 tag arrays
 * (cache/tag_array.hh) and the coherence directory (core/directory.hh):
 * set indexing, probing, true-LRU victim choice and valid counting.
 *
 * Validity is a generation stamp. An entry is live iff its 32-bit
 * `stamp` equals the array's current generation, and nothing else
 * records validity. Dropping one entry zeroes its stamp; dropping every
 * entry bumps the generation, so a bulk invalidation costs O(1) however
 * large the array, and the live count it returns is maintained, not
 * counted. Generations start at 1, so the all-zero bytes of a fresh
 * mapping are empty entries and construction writes nothing.
 * When the generation would wrap to 0, every stamp is reset first: an
 * entry dropped 2^32 bulk invalidations earlier must not match again.
 *
 * Each set also keeps a 32-bit summary word: the generation of the last
 * insert into that set. A set whose word differs from the current
 * generation holds no live entry, so a probe of it misses without
 * reading the set's ways (192–384 bytes of host memory), and an insert
 * into it takes way 0 without a scan, the way a full scan would pick.
 * A bulk invalidation leaves every word stale for free; the wrap resets
 * the words with the stamps. Software coherence empties whole arrays at
 * every acquire and kernel boundary, so most probes in those runs land
 * in such sets.
 *
 * The LRU counter is 32 bits, like the stamps it sits beside. Before it
 * would pass 2^32 - 1, the live entries of each set are renumbered
 * 1..n in their LRU order and the counter restarts above the largest
 * set's n. Victims are only ever compared within a set, so every later
 * victim is the one a 64-bit counter would have picked.
 *
 * The entries and the summary words live in a TagStore
 * (cache/tag_store.hh): the System's one mapping, or a private one.
 */

#ifndef HMG_CACHE_SET_ASSOC_HH
#define HMG_CACHE_SET_ASSOC_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "cache/tag_store.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace hmg
{

/**
 * Set-associative array of `Entry` keyed by the address member `Key`,
 * with true-LRU replacement.
 *
 * `Entry` is an aggregate whose value-initialized state is all-zero
 * bytes (so fresh mapped storage holds empty entries), with members
 * `std::uint32_t stamp` (owned by this class) and an unsigned `lru` of
 * at least 32 bits (larger = more recently used). The set of a key is
 * `(key >> key_shift) % num_sets`.
 */
template <typename Entry, Addr Entry::*Key>
class SetAssoc
{
    static_assert(std::is_aggregate_v<Entry> &&
                      std::is_trivially_copyable_v<Entry> &&
                      std::is_trivially_destructible_v<Entry>,
                  "entries are created implicitly in zeroed storage");

  public:
    /** What insert() did. */
    struct Placement
    {
        Entry *entry;  //!< the key's entry: live and most recently used
        bool inserted; //!< false when the key was already present
        bool evicted;  //!< a live victim was displaced to make room
    };

    /** Bytes the array takes from a TagStore: its entries, then its
     *  per-set summary words, each in a region of its own. */
    static std::uint64_t
    storageBytes(std::uint64_t num_sets, std::uint32_t ways)
    {
        return TagStore::regionBytes(num_sets * ways * sizeof(Entry)) +
               TagStore::regionBytes(num_sets * sizeof(std::uint32_t));
    }

    /**
     * An array in a private store of its own.
     * @param first_generation generation the array starts in (tests
     *        start near the wrap); never 0, the empty stamp
     * @param first_lru first LRU stamp handed out (tests start near the
     *        renumbering)
     */
    SetAssoc(std::uint64_t num_sets, std::uint32_t ways, unsigned key_shift,
             std::uint32_t first_generation = 1, std::uint32_t first_lru = 1)
        : own_(std::make_unique<TagStore>(
              storageBytes(num_sets, ways),
              "a " + std::to_string(num_sets) + "-set, " +
                  std::to_string(ways) + "-way array of " +
                  std::to_string(sizeof(Entry)) + "-byte entries")),
          num_sets_(num_sets),
          ways_(ways),
          key_shift_(key_shift),
          gen_(first_generation),
          next_lru_(first_lru)
    {
        place(*own_);
    }

    /** An array carved from `store`, which must outlive it. */
    SetAssoc(std::uint64_t num_sets, std::uint32_t ways, unsigned key_shift,
             TagStore &store)
        : num_sets_(num_sets), ways_(ways), key_shift_(key_shift)
    {
        place(store);
    }

    /** Find `key` and make it most recently used. */
    Entry *
    find(Addr key)
    {
        Entry *e = probe(key);
        if (e)
            e->lru = nextLru();
        return e;
    }

    /** Find without touching LRU state. */
    const Entry *peek(Addr key) const { return probe(key); }
    Entry *peek(Addr key) { return probe(key); }

    /**
     * Make `key` live and most recently used. A key already present is
     * kept as it is. Otherwise the set's first empty way is used, or
     * failing that its least recently used entry, which is copied to
     * `evicted` first; the way then starts from `Entry{}`.
     * @param evicted reset, then set to the displaced live entry
     */
    Placement
    insert(Addr key, std::optional<Entry> *evicted = nullptr)
    {
        if (evicted)
            evicted->reset();
        const std::uint64_t set = setOf(key);
        Entry *base = &entries_[set * ways_];
        Entry *victim = nullptr;
        bool victim_live = false;
        if (set_gen_[set] != gen_) {
            // Nothing live in the set: its first way is the first empty.
            set_gen_[set] = gen_;
            victim = base;
        } else {
            for (std::uint32_t w = 0; w < ways_; ++w) {
                Entry &e = base[w];
                if (e.stamp != gen_) {
                    if (!victim || victim_live) {
                        victim = &e;
                        victim_live = false;
                    }
                    continue;
                }
                if (e.*Key == key) {
                    e.lru = nextLru();
                    return {&e, false, false};
                }
                if (!victim || (victim_live && e.lru < victim->lru)) {
                    victim = &e;
                    victim_live = true;
                }
            }
        }
        if (victim_live) {
            if (evicted)
                evicted->emplace(*victim);
        } else {
            ++live_;
        }
        *victim = Entry{};
        victim->*Key = key;
        victim->stamp = gen_;
        victim->lru = nextLru();
        return {victim, true, victim_live};
    }

    /**
     * Drop `key`.
     * @param dropped if non-null, receives the entry as it was
     * @return true if it was present
     */
    bool
    erase(Addr key, Entry *dropped = nullptr)
    {
        Entry *e = probe(key);
        if (!e)
            return false;
        if (dropped)
            *dropped = *e;
        e->stamp = 0;
        --live_;
        return true;
    }

    /** Drop every entry in O(1). @return how many were live. */
    std::uint64_t
    clear()
    {
        const std::uint64_t dropped = live_;
        live_ = 0;
        if (++gen_ == 0) {
            for (std::uint64_t i = 0; i < num_sets_ * ways_; ++i)
                entries_[i].stamp = 0;
            for (std::uint64_t i = 0; i < num_sets_; ++i)
                set_gen_[i] = 0;
            gen_ = 1;
        }
        return dropped;
    }

    /** Number of live entries. */
    std::uint64_t size() const { return live_; }

    std::uint64_t numSets() const { return num_sets_; }
    std::uint32_t ways() const { return ways_; }
    std::uint32_t generation() const { return gen_; }

    /** The entry and summary-word regions (layout checks in tests). */
    const Entry *entryData() const { return entries_; }
    const std::uint32_t *summaryData() const { return set_gen_; }

    /** Visit every live entry, in set-then-way order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::uint64_t set = 0; set < num_sets_; ++set) {
            if (set_gen_[set] != gen_)
                continue;
            const Entry *base = &entries_[set * ways_];
            for (std::uint32_t w = 0; w < ways_; ++w)
                if (base[w].stamp == gen_)
                    fn(base[w]);
        }
    }

  private:
    void
    place(TagStore &store)
    {
        hmg_assert(num_sets_ > 0 && ways_ > 0 && gen_ != 0);
        // Renumbering restarts the counter above the ways of a set.
        hmg_assert(ways_ < UINT32_MAX / 2);
        entries_ = static_cast<Entry *>(
            store.take(num_sets_ * ways_ * sizeof(Entry)));
        set_gen_ = static_cast<std::uint32_t *>(
            store.take(num_sets_ * sizeof(std::uint32_t)));
    }

    std::uint64_t
    setOf(Addr key) const
    {
        return (key >> key_shift_) % num_sets_;
    }

    Entry *
    probe(Addr key) const
    {
        const std::uint64_t set = setOf(key);
        if (set_gen_[set] != gen_)
            return nullptr;
        Entry *base = &entries_[set * ways_];
        for (std::uint32_t w = 0; w < ways_; ++w)
            if (base[w].stamp == gen_ && base[w].*Key == key)
                return &base[w];
        return nullptr;
    }

    /** The next LRU stamp (see the file comment on renumbering). */
    std::uint32_t
    nextLru()
    {
        if (next_lru_ == UINT32_MAX) [[unlikely]]
            renumberLru();
        return next_lru_++;
    }

    /** Renumber each set's live entries 1..n in LRU order. */
    void
    renumberLru()
    {
        std::vector<Entry *> live;
        std::uint32_t top = 0;
        for (std::uint64_t set = 0; set < num_sets_; ++set) {
            if (set_gen_[set] != gen_)
                continue;
            live.clear();
            Entry *base = &entries_[set * ways_];
            for (std::uint32_t w = 0; w < ways_; ++w)
                if (base[w].stamp == gen_)
                    live.push_back(&base[w]);
            std::sort(live.begin(), live.end(),
                      [](const Entry *a, const Entry *b) {
                          return a->lru < b->lru;
                      });
            std::uint32_t n = 0;
            for (Entry *e : live)
                e->lru = ++n;
            top = std::max(top, n);
        }
        next_lru_ = top + 1;
    }

    /** The array's private store; null when carved from a shared one. */
    std::unique_ptr<TagStore> own_;
    std::uint64_t num_sets_;
    std::uint32_t ways_;
    unsigned key_shift_;
    std::uint32_t gen_ = 1;
    std::uint32_t next_lru_ = 1;
    std::uint64_t live_ = 0;
    Entry *entries_ = nullptr;
    /** Per set: the generation of its last insert (see file comment). */
    std::uint32_t *set_gen_ = nullptr;
};

} // namespace hmg

#endif // HMG_CACHE_SET_ASSOC_HH
