/**
 * @file
 * Differential test of the set-associative core (cache/set_assoc.hh)
 * behind TagArray and Directory. Seeded random operation sequences run
 * against the linear-scan implementation the core replaced, kept here
 * as the reference: stored valid flags, a 64-bit LRU counter,
 * first-empty-way-else-LRU victim choice, and a bulk invalidation that
 * walks the array. Every step must agree on return values, evicted and
 * dropped copies, LRU stamps and live counts, and the live contents must
 * match entry for entry. Across the 32-bit LRU counter's renumbering the
 * stamps differ by design, and everything else must still agree. A
 * directed case drives the per-set summary's fast paths (a probe of, or
 * an insert into, a set with nothing live) against the same reference.
 *
 * The tag store (cache/tag_store.hh) is checked on whole Systems: every
 * array lies in the one mapping, on a 64-byte boundary, and the arrays
 * fill exactly the size the System computed. In AddressSanitizer builds
 * a read past an array's end must report.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "cache/set_assoc.hh"
#include "cache/tag_array.hh"
#include "cache/tag_store.hh"
#include "common/rng.hh"
#include "common/topology.hh"
#include "core/directory.hh"
#include "gpu/system.hh"

namespace hmg
{
namespace
{

static_assert(sizeof(CacheLine) == 24);
static_assert(sizeof(DirEntry) == 32);

// ------------------------------------------------------------ reference

template <typename Payload>
struct RefEntry
{
    Addr key = 0;
    bool valid = false;
    std::uint64_t lru = 0;
    Payload payload{};
};

/** The replaced TagArray/Directory algorithm, kept verbatim in shape. */
template <typename Payload>
class RefArray
{
  public:
    using Entry = RefEntry<Payload>;

    RefArray(std::uint64_t num_sets, std::uint32_t ways, unsigned shift)
        : num_sets_(num_sets), ways_(ways), shift_(shift),
          entries_(num_sets * ways)
    {
    }

    Entry *
    lookup(Addr key)
    {
        Entry *base = setBase(key);
        for (std::uint32_t w = 0; w < ways_; ++w) {
            Entry &e = base[w];
            if (e.valid && e.key == key) {
                e.lru = next_lru_++;
                return &e;
            }
        }
        return nullptr;
    }

    const Entry *
    peek(Addr key)
    {
        Entry *base = setBase(key);
        for (std::uint32_t w = 0; w < ways_; ++w)
            if (base[w].valid && base[w].key == key)
                return &base[w];
        return nullptr;
    }

    /** @return the entry and whether it was freshly allocated. */
    std::pair<Entry *, bool>
    insert(Addr key, Entry *evicted)
    {
        evicted->valid = false;
        Entry *base = setBase(key);
        Entry *victim = nullptr;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            Entry &e = base[w];
            if (e.valid && e.key == key) {
                e.lru = next_lru_++;
                return {&e, false};
            }
            if (!e.valid) {
                if (!victim || victim->valid)
                    victim = &e;
            } else if (!victim || (victim->valid && e.lru < victim->lru)) {
                victim = &e;
            }
        }
        if (victim->valid)
            *evicted = *victim;
        victim->key = key;
        victim->valid = true;
        victim->payload = Payload{};
        victim->lru = next_lru_++;
        return {victim, true};
    }

    bool
    invalidate(Addr key)
    {
        Entry *base = setBase(key);
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (base[w].valid && base[w].key == key) {
                base[w].valid = false;
                return true;
            }
        }
        return false;
    }

    std::uint64_t
    invalidateAll()
    {
        std::uint64_t n = 0;
        for (auto &e : entries_) {
            if (e.valid) {
                e.valid = false;
                ++n;
            }
        }
        return n;
    }

    std::uint64_t
    validCount() const
    {
        std::uint64_t n = 0;
        for (const auto &e : entries_)
            if (e.valid)
                ++n;
        return n;
    }

    const std::vector<Entry> &entries() const { return entries_; }

  private:
    Entry *
    setBase(Addr key)
    {
        return &entries_[((key >> shift_) % num_sets_) * ways_];
    }

    std::uint64_t num_sets_;
    std::uint32_t ways_;
    unsigned shift_;
    std::uint64_t next_lru_ = 1;
    std::vector<Entry> entries_;
};

// ------------------------------------------------- payloads per entry type

struct LinePayload
{
    bool dirty = false;
    Version version = 0;
    bool operator==(const LinePayload &) const = default;
};

struct SharerPayload
{
    std::uint32_t gpm = 0;
    std::uint32_t gpu = 0;
    std::uint32_t node = 0;
    bool operator==(const SharerPayload &) const = default;
};

Addr keyOf(const CacheLine &l) { return l.addr; }
Addr keyOf(const DirEntry &e) { return e.sector; }
LinePayload payloadOf(const CacheLine &l) { return {l.dirty, l.version}; }

SharerPayload
payloadOf(const DirEntry &e)
{
    return {e.gpmSharers, e.gpuSharers, e.nodeSharers};
}

void
setPayload(CacheLine &l, const LinePayload &p)
{
    l.dirty = p.dirty;
    l.version = p.version;
}

void
setPayload(DirEntry &e, const SharerPayload &p)
{
    e.gpmSharers = p.gpm;
    e.gpuSharers = p.gpu;
    e.nodeSharers = p.node;
}

LinePayload
randomPayload(Rng &rng, LinePayload)
{
    return {rng.chance(0.5), rng.below(1000)};
}

SharerPayload
randomPayload(Rng &rng, SharerPayload)
{
    return {static_cast<std::uint32_t>(rng.below(16)),
            static_cast<std::uint32_t>(rng.below(16)),
            static_cast<std::uint32_t>(rng.below(4))};
}

// ----------------------------------------------------------- subjects

/**
 * Each subject exposes the core's vocabulary over one implementation:
 * find / peek / insert / erase, plus eraseRange and clear where the
 * implementation has them.
 */
template <typename E, Addr E::*Key>
struct CoreSubject
{
    using Entry = E;
    static constexpr bool kHasClear = true;
    static constexpr bool kHasRange = false;

    SetAssoc<E, Key> core;

    E *find(Addr a) { return core.find(a); }
    const E *peek(Addr a) const { return core.peek(a); }
    E *
    insert(Addr a, std::optional<E> *ev)
    {
        return core.insert(a, ev).entry;
    }
    bool erase(Addr a, E *dropped) { return core.erase(a, dropped); }
    std::uint64_t clear() { return core.clear(); }
    std::uint64_t size() const { return core.size(); }
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        core.forEach(fn);
    }
};

struct TagArraySubject
{
    using Entry = CacheLine;
    static constexpr bool kHasClear = true;
    static constexpr bool kHasRange = true;

    TagArray tags;

    CacheLine *find(Addr a) { return tags.lookup(a); }
    const CacheLine *peek(Addr a) const { return tags.peek(a); }

    CacheLine *
    insert(Addr a, std::optional<CacheLine> *ev)
    {
        return tags.insert(a, ev);
    }

    bool
    erase(Addr a, CacheLine *dropped)
    {
        return tags.invalidate(a, dropped);
    }

    std::uint64_t
    eraseRange(Addr a, std::uint64_t bytes)
    {
        return tags.invalidateRange(a, bytes);
    }

    std::uint64_t clear() { return tags.invalidateAll(); }
    std::uint64_t size() const { return tags.validCount(); }
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        tags.forEachValid(fn);
    }
};

/** Directory calls take any address inside the sector. */
struct DirectorySubject
{
    using Entry = DirEntry;
    static constexpr bool kHasClear = false;
    static constexpr bool kHasRange = false;

    Directory dir;
    Addr offset = 0; //!< added to every key; varied by the driver

    DirEntry *find(Addr a) { return dir.find(a + offset); }
    const DirEntry *peek(Addr a) const { return dir.peek(a + offset); }

    DirEntry *
    insert(Addr a, std::optional<DirEntry> *ev)
    {
        return dir.allocate(a + offset, ev);
    }

    bool
    erase(Addr a, DirEntry *dropped)
    {
        if (dropped)
            if (const DirEntry *e = dir.peek(a + offset))
                *dropped = *e;
        return dir.remove(a + offset);
    }

    std::uint64_t size() const { return dir.validCount(); }
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        dir.forEachValid(fn);
    }
};

// --------------------------------------------------------------- driver

/** What the reference did, for checking the directory's statistics. */
struct RefCounts
{
    std::uint64_t finds = 0;
    std::uint64_t findHits = 0;
    std::uint64_t allocations = 0;
    std::uint64_t evictions = 0;
    std::uint64_t clears = 0;
};

/** @param exact_lru compare the LRU stamps too (not across the core's
 *         renumbering, which changes them by design) */
template <typename Entry, typename Payload>
void
expectSame(const Entry *got, const RefEntry<Payload> *want, std::uint64_t step,
           bool exact_lru = true)
{
    ASSERT_EQ(got != nullptr, want != nullptr) << "step " << step;
    if (!got)
        return;
    EXPECT_EQ(keyOf(*got), want->key) << "step " << step;
    if (exact_lru) {
        EXPECT_EQ(got->lru, want->lru) << "step " << step;
    }
    EXPECT_TRUE(payloadOf(*got) == want->payload) << "step " << step;
}

template <typename Subject, typename Payload>
void
expectSameContents(const Subject &s, const RefArray<Payload> &ref,
                   std::uint64_t step, bool exact_lru = true)
{
    std::vector<RefEntry<Payload>> got;
    s.forEach([&](const typename Subject::Entry &e) {
        got.push_back({keyOf(e), true, e.lru, payloadOf(e)});
    });
    std::vector<RefEntry<Payload>> want;
    for (const auto &e : ref.entries())
        if (e.valid)
            want.push_back(e);
    ASSERT_EQ(got.size(), want.size()) << "step " << step;
    ASSERT_EQ(s.size(), want.size()) << "step " << step;
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].key, want[i].key) << "step " << step;
        if (exact_lru) {
            ASSERT_EQ(got[i].lru, want[i].lru) << "step " << step;
        }
        ASSERT_TRUE(got[i].payload == want[i].payload) << "step " << step;
    }
}

/**
 * Run `steps` random operations on `s` and the reference; each step is
 * a bulk invalidation with probability `clear_prob`. Keys mostly land
 * in a few hot sets so they overflow and evict; the rest spread over
 * the whole array.
 */
template <typename Subject>
void
runDifferential(Subject &s, std::uint64_t num_sets, std::uint32_t ways,
                unsigned shift, std::uint64_t steps, std::uint64_t seed,
                double clear_prob, RefCounts &counts, bool exact_lru = true)
{
    using Entry = typename Subject::Entry;
    using Payload = decltype(payloadOf(std::declval<const Entry &>()));
    RefArray<Payload> ref(num_sets, ways, shift);
    Rng rng(seed);
    const std::uint64_t hot_sets = std::min<std::uint64_t>(num_sets, 8);

    auto pickKey = [&]() -> Addr {
        const std::uint64_t set =
            rng.chance(0.7) ? rng.below(hot_sets) : rng.below(num_sets);
        const std::uint64_t tag = rng.below(2 * ways);
        return (set + tag * num_sets) << shift;
    };

    for (std::uint64_t step = 0; step < steps; ++step) {
        if constexpr (requires { s.offset; })
            s.offset = rng.below(Addr{1} << shift);
        const Addr key = pickKey();
        const std::uint64_t op = rng.below(100);
        if (rng.chance(clear_prob)) {
            if constexpr (Subject::kHasClear) {
                ++counts.clears;
                ASSERT_EQ(s.clear(), ref.invalidateAll()) << "step " << step;
                expectSameContents(s, ref, step, exact_lru);
            }
        } else if (op < 30) {
            ++counts.finds;
            Entry *got = s.find(key);
            RefEntry<Payload> *want = ref.lookup(key);
            if (want)
                ++counts.findHits;
            expectSame(got, want, step, exact_lru);
            if (got && want && rng.chance(0.5)) {
                want->payload = randomPayload(rng, Payload{});
                setPayload(*got, want->payload);
            }
        } else if (op < 40) {
            expectSame(s.peek(key), ref.peek(key), step, exact_lru);
        } else if (op < 78) {
            std::optional<Entry> evicted;
            Entry *got = s.insert(key, &evicted);
            RefEntry<Payload> ref_evicted;
            auto [want, fresh] = ref.insert(key, &ref_evicted);
            ASSERT_NE(got, nullptr);
            expectSame(got, want, step, exact_lru);
            ASSERT_EQ(evicted.has_value(), ref_evicted.valid)
                << "step " << step;
            if (evicted)
                expectSame(&*evicted, &ref_evicted, step, exact_lru);
            if (fresh) {
                ++counts.allocations;
                if (ref_evicted.valid)
                    ++counts.evictions;
            }
            want->payload = randomPayload(rng, Payload{});
            setPayload(*got, want->payload);
        } else if (op < 92 || !Subject::kHasRange) {
            Entry dropped{};
            const RefEntry<Payload> *present = ref.peek(key);
            const std::optional<RefEntry<Payload>> before =
                present ? std::optional(*present) : std::nullopt;
            const bool got = s.erase(key, &dropped);
            ASSERT_EQ(got, ref.invalidate(key)) << "step " << step;
            if (got)
                expectSame(&dropped, &*before, step, exact_lru);
        } else {
            if constexpr (Subject::kHasRange) {
                const std::uint64_t lines = rng.range(1, 8);
                std::uint64_t want = 0;
                for (std::uint64_t i = 0; i < lines; ++i)
                    want += ref.invalidate(key + (i << shift));
                ASSERT_EQ(s.eraseRange(key, lines << shift), want)
                    << "step " << step;
            }
        }
        // The reference counts by walking, so sample it.
        if (step % 32 == 0) {
            ASSERT_EQ(s.size(), ref.validCount()) << "step " << step;
        }
        if (step % 4096 == 0)
            expectSameContents(s, ref, step, exact_lru);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    expectSameContents(s, ref, steps, exact_lru);
}

// ---------------------------------------------------------------- tests

TEST(SetAssocDifferential, L1TagArray)
{
    // 128 KB, 8-way, 128 B lines: 128 sets.
    TagArraySubject s{TagArray::fromCapacity(128 * 1024, 8, 128)};
    ASSERT_EQ(s.tags.numSets(), 128u);
    RefCounts counts;
    runDifferential(s, 128, 8, 7, 60000, 1, 0.002, counts);
    EXPECT_GT(counts.evictions, 1000u);
    EXPECT_GT(counts.clears, 50u);
}

TEST(SetAssocDifferential, L2TagArray)
{
    // 3 MB, 16-way, 128 B lines: 1536 sets, not a power of two.
    TagArraySubject s{TagArray::fromCapacity(3 * 1024 * 1024, 16, 128)};
    ASSERT_EQ(s.tags.numSets(), 1536u);
    RefCounts counts;
    runDifferential(s, 1536, 16, 7, 60000, 2, 0.0002, counts);
    EXPECT_GT(counts.evictions, 1000u);
    EXPECT_GT(counts.clears, 2u);
}

TEST(SetAssocDifferential, Directory)
{
    // Table II: 12 K entries, 8-way, 4 x 128 B lines per entry.
    DirectorySubject s{Directory(12 * 1024, 8, 512)};
    ASSERT_EQ(s.dir.numSets(), 1536u);
    RefCounts counts;
    runDifferential(s, 1536, 8, 9, 60000, 3, 0, counts);
    EXPECT_GT(counts.evictions, 1000u);
    EXPECT_EQ(s.dir.lookups(), counts.finds);
    EXPECT_EQ(s.dir.hits(), counts.findHits);
    EXPECT_EQ(s.dir.allocations(), counts.allocations);
    EXPECT_EQ(s.dir.evictions(), counts.evictions);
}

constexpr std::uint32_t kNearWrap =
    std::numeric_limits<std::uint32_t>::max() - 40;

TEST(SetAssocDifferential, CacheLinesAcrossGenerationWrap)
{
    // ~120 clears carry the generation past 2^32 - 1 and on.
    CoreSubject<CacheLine, &CacheLine::addr> s{{4, 2, 7, kNearWrap}};
    RefCounts counts;
    runDifferential(s, 4, 2, 7, 4000, 4, 0.03, counts);
    EXPECT_GT(counts.clears, 41u);
    EXPECT_LT(s.core.generation(), kNearWrap);
}

TEST(SetAssocDifferential, DirEntriesAcrossGenerationWrap)
{
    CoreSubject<DirEntry, &DirEntry::sector> s{{4, 2, 9, kNearWrap}};
    RefCounts counts;
    runDifferential(s, 4, 2, 9, 4000, 5, 0.03, counts);
    EXPECT_GT(counts.clears, 41u);
    EXPECT_LT(s.core.generation(), kNearWrap);
}

/**
 * The core and the reference driven in lockstep by explicit steps; every
 * step is checked like a runDifferential() step, and the contents after
 * it entry for entry (so a way chosen differently shows up as order).
 */
class Lockstep
{
  public:
    static constexpr std::uint64_t kSets = 4;
    static constexpr std::uint32_t kWays = 4;
    static constexpr unsigned kShift = 7;

    explicit Lockstep(std::uint32_t first_generation)
        : s{{kSets, kWays, kShift, first_generation}},
          ref(kSets, kWays, kShift)
    {
    }

    static Addr key(std::uint64_t set, std::uint64_t tag)
    {
        return (set + tag * kSets) << kShift;
    }

    void
    insert(Addr a)
    {
        std::optional<CacheLine> evicted;
        CacheLine *got = s.insert(a, &evicted);
        RefEntry<LinePayload> ref_evicted;
        RefEntry<LinePayload> *want = ref.insert(a, &ref_evicted).first;
        expectSame(got, want, step);
        ASSERT_EQ(evicted.has_value(), ref_evicted.valid) << "step " << step;
        if (evicted)
            expectSame(&*evicted, &ref_evicted, step);
        want->payload = {true, step};
        setPayload(*got, want->payload);
        check();
    }

    void
    probe(Addr a)
    {
        expectSame(s.peek(a), ref.peek(a), step);
        expectSame(s.find(a), ref.lookup(a), step);
        check();
    }

    void
    erase(Addr a)
    {
        CacheLine dropped{};
        ASSERT_EQ(s.erase(a, &dropped), ref.invalidate(a)) << "step " << step;
        check();
    }

    void
    clear()
    {
        ASSERT_EQ(s.clear(), ref.invalidateAll()) << "step " << step;
        check();
    }

    CoreSubject<CacheLine, &CacheLine::addr> s;
    RefArray<LinePayload> ref;

  private:
    void
    check()
    {
        expectSameContents(s, ref, step);
        ++step;
    }

    std::uint64_t step = 0;
};

TEST(SetAssocSummary, EmptySetFastPathMatchesReference)
{
    const std::uint32_t max = std::numeric_limits<std::uint32_t>::max();
    // From the first generation, and from two clears before the wrap.
    for (std::uint32_t first : {1u, max - 1}) {
        SCOPED_TRACE(first);
        Lockstep t(first);
        // A fresh array: every set is empty, probes miss, an insert
        // takes way 0 and the next one way 1.
        for (std::uint64_t set = 0; set < Lockstep::kSets; ++set)
            t.probe(Lockstep::key(set, 0));
        t.insert(Lockstep::key(0, 0));
        t.insert(Lockstep::key(0, 1));
        // Overfill sets 0 and 1 so the clear drops full, evicted sets.
        for (std::uint64_t tag = 0; tag < 2 * Lockstep::kWays; ++tag) {
            t.insert(Lockstep::key(0, tag));
            t.insert(Lockstep::key(1, tag));
        }
        for (int round = 0; round < 3; ++round) {
            // After a clear (the second and third cross the wrap for
            // the near-wrap array) no set has anything live: the old
            // keys miss and refill from way 0 in reference order.
            t.clear();
            for (std::uint64_t tag = 0; tag < 2 * Lockstep::kWays; ++tag)
                t.probe(Lockstep::key(0, tag));
            t.insert(Lockstep::key(0, 5));
            t.insert(Lockstep::key(0, 2));
            t.probe(Lockstep::key(0, 5));
            t.probe(Lockstep::key(1, 5));
            t.insert(Lockstep::key(1, 7));
        }
        // An erase that empties a set leaves its summary current: the
        // probe scans and misses, the insert takes the first empty way.
        t.erase(Lockstep::key(0, 5));
        t.erase(Lockstep::key(0, 2));
        t.probe(Lockstep::key(0, 5));
        t.probe(Lockstep::key(0, 2));
        t.insert(Lockstep::key(0, 3));
        t.insert(Lockstep::key(0, 2));
        // A set emptied by erases, then cleared, then refilled.
        t.erase(Lockstep::key(1, 7));
        t.clear();
        t.insert(Lockstep::key(1, 7));
        t.insert(Lockstep::key(1, 6));
        t.probe(Lockstep::key(1, 7));
        EXPECT_EQ(t.s.size(), 2u);
        if (first != 1) {
            EXPECT_LT(t.s.core.generation(), 8u); // it did wrap
        }
    }
}

TEST(SetAssoc, WrapResetsEveryStampAndReusedWaysStartClean)
{
    const std::uint32_t max = std::numeric_limits<std::uint32_t>::max();
    SetAssoc<CacheLine, &CacheLine::addr> lines(2, 2, 7, max - 1);
    SetAssoc<DirEntry, &DirEntry::sector> dir(2, 2, 9, max - 1);
    // Generation max-1: fill, dirty and share everything, then clear.
    for (Addr i = 0; i < 4; ++i) {
        CacheLine *l = lines.insert(i << 7).entry;
        l->dirty = true;
        l->version = 9;
        dir.insert(i << 9).entry->addGpu(1);
    }
    EXPECT_EQ(lines.clear(), 4u);
    EXPECT_EQ(dir.clear(), 4u);
    // Generation max: one line re-inserted, then the clear that wraps.
    lines.insert(0).entry->dirty = true;
    EXPECT_EQ(lines.clear(), 1u);
    EXPECT_EQ(dir.clear(), 0u);
    EXPECT_EQ(lines.generation(), 1u);
    EXPECT_EQ(dir.generation(), 1u);
    // Generation 0 would revive every empty (all-zero) entry; 1 must
    // find nothing live, and so must the generations after it.
    for (int round = 0; round < 3; ++round) {
        for (Addr i = 0; i < 4; ++i) {
            EXPECT_EQ(lines.peek(i << 7), nullptr);
            EXPECT_EQ(dir.peek(i << 9), nullptr);
        }
        EXPECT_EQ(lines.size(), 0u);
        EXPECT_EQ(dir.size(), 0u);
        std::uint64_t visited = 0;
        lines.forEach([&](const CacheLine &) { ++visited; });
        dir.forEach([&](const DirEntry &) { ++visited; });
        EXPECT_EQ(visited, 0u);
        lines.clear();
        dir.clear();
    }
    // A reused way starts with version 0, clean and with no sharers.
    for (Addr i = 0; i < 4; ++i) {
        const auto placed = lines.insert(i << 7);
        EXPECT_TRUE(placed.inserted);
        EXPECT_FALSE(placed.evicted);
        EXPECT_EQ(placed.entry->version, 0u);
        EXPECT_FALSE(placed.entry->dirty);
        EXPECT_FALSE(dir.insert(i << 9).entry->hasSharers());
    }
    EXPECT_EQ(lines.size(), 4u);
    EXPECT_EQ(dir.size(), 4u);
}

constexpr std::uint32_t kNearLruRenumber =
    std::numeric_limits<std::uint32_t>::max() - 2000;

/** The largest LRU stamp live in `core`. */
template <typename Core>
std::uint64_t
maxLru(const Core &core)
{
    std::uint64_t top = 0;
    core.forEach([&](const auto &e) {
        top = std::max<std::uint64_t>(top, e.lru);
    });
    return top;
}

TEST(SetAssocDifferential, CacheLinesAcrossLruRenumbering)
{
    // Finds and inserts take an LRU stamp on about every other step, so
    // the counter passes 2^32 - 1 (2,000 stamps in) well inside the run;
    // victims and the forEach order must match the 64-bit reference on
    // both sides of the renumbering.
    CoreSubject<CacheLine, &CacheLine::addr> s{{16, 4, 7, 1,
                                                kNearLruRenumber}};
    RefCounts counts;
    runDifferential(s, 16, 4, 7, 6000, 6, 0.002, counts,
                    /*exact_lru=*/false);
    EXPECT_GT(counts.evictions, 300u);
    EXPECT_LT(maxLru(s.core), 4000u); // it did renumber
}

TEST(SetAssocDifferential, DirEntriesAcrossLruRenumbering)
{
    CoreSubject<DirEntry, &DirEntry::sector> s{{16, 4, 9, 1,
                                                kNearLruRenumber}};
    RefCounts counts;
    runDifferential(s, 16, 4, 9, 6000, 7, 0, counts, /*exact_lru=*/false);
    EXPECT_GT(counts.evictions, 300u);
    EXPECT_LT(maxLru(s.core), 4000u);
}

TEST(SetAssoc, RenumberingKeepsEachSetsLruOrder)
{
    // Two sets at the counter's last stamps, filled in different orders.
    SetAssoc<CacheLine, &CacheLine::addr> lines(
        2, 3, 7, 1, std::numeric_limits<std::uint32_t>::max() - 5);
    auto key = [](Addr set, Addr tag) { return (set + 2 * tag) << 7; };
    for (Addr tag : {0, 1, 2})
        lines.insert(key(0, tag));
    lines.insert(key(1, 2));
    lines.insert(key(1, 0));
    // The next stamp would pass 2^32 - 1: set 0 renumbers to 1..3 and
    // set 1 to 1..2, then the find takes 4 (above every set's top).
    ASSERT_NE(lines.find(key(0, 0)), nullptr);
    EXPECT_EQ(lines.peek(key(0, 1))->lru, 2u);
    EXPECT_EQ(lines.peek(key(0, 2))->lru, 3u);
    EXPECT_EQ(lines.peek(key(0, 0))->lru, 4u);
    EXPECT_EQ(lines.peek(key(1, 2))->lru, 1u);
    EXPECT_EQ(lines.peek(key(1, 0))->lru, 2u);
    // So the victims are the ones a 64-bit counter would pick.
    std::optional<CacheLine> evicted;
    lines.insert(key(0, 3), &evicted);
    ASSERT_TRUE(evicted);
    EXPECT_EQ(evicted->addr, key(0, 1));
    lines.insert(key(1, 1));
    lines.insert(key(1, 3), &evicted);
    ASSERT_TRUE(evicted);
    EXPECT_EQ(evicted->addr, key(1, 2));
}

// ------------------------------------------------------------ tag store

/** One region an array took from its store: entries or summary words. */
struct Region
{
    const std::byte *begin;
    std::uint64_t bytes;
};

template <typename Core>
void
addRegions(std::vector<Region> &out, const Core &core)
{
    out.push_back({reinterpret_cast<const std::byte *>(core.entryData()),
                   core.numSets() * core.ways() *
                       sizeof(*core.entryData())});
    out.push_back({reinterpret_cast<const std::byte *>(core.summaryData()),
                   core.numSets() * sizeof(std::uint32_t)});
}

/** Every array of a System built from `cfg` lies in its one store, on a
 *  64-byte boundary, and the arrays fill the store exactly. */
void
expectOneStore(const SystemConfig &cfg)
{
    System sys(cfg);
    const TagStore &store = sys.tagStore();
    std::vector<Region> regions;
    for (SmId s = 0; s < sys.numSms(); ++s)
        addRegions(regions, sys.sm(s).l1().tags().core());
    for (GpmId g = 0; g < cfg.totalGpms(); ++g) {
        addRegions(regions, sys.gpm(g).l2().tags().core());
        const Directory *dir = sys.gpm(g).dir();
        EXPECT_EQ(dir != nullptr, isHardwareProtocol(cfg.protocol));
        if (dir)
            addRegions(regions, dir->core());
    }
    EXPECT_EQ(store.size(), System::tagStoreBytes(cfg));
    EXPECT_EQ(store.used(), store.size());
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(store.base()) %
                  TagStore::kHugePage,
              0u);
    std::sort(regions.begin(), regions.end(),
              [](const Region &a, const Region &b) {
                  return a.begin < b.begin;
              });
    // Sorted by address, each region starts where the one before it
    // (with its padding and guard) ended: none lies outside the store,
    // none overlaps another, and no byte of the store is left over.
    const std::byte *next = store.base();
    for (const Region &r : regions) {
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(r.begin) %
                      kHostLineBytes,
                  0u);
        ASSERT_EQ(r.begin, next);
        next = r.begin + TagStore::regionBytes(r.bytes);
    }
    EXPECT_EQ(next, store.base() + store.size());
}

TEST(TagStore, DefaultMachineFillsOneStore)
{
    for (Protocol p : {Protocol::Hmg, Protocol::SwNonHier}) {
        SCOPED_TRACE(toString(p));
        SystemConfig cfg;
        cfg.protocol = p;
        expectOneStore(cfg);
    }
}

TEST(TagStore, TwoNodeMachineFillsOneStore)
{
    for (Protocol p : {Protocol::Hmg, Protocol::SwNonHier}) {
        SCOPED_TRACE(toString(p));
        SystemConfig cfg;
        Topology::loadFile(std::string(HMG_TOPOLOGY_DIR) +
                           "/two_node_2x2x2.json")
            .applyTo(cfg);
        cfg.protocol = p;
        expectOneStore(cfg);
    }
}

#if defined(__SANITIZE_ADDRESS__)
TEST(TagStoreDeathTest, ReadPastAnArrayReports)
{
    // Two arrays side by side in one store: the guard between them
    // makes a read one entry past the first array's end a report, as
    // a separate heap block's redzone did.
    using Lines = SetAssoc<CacheLine, &CacheLine::addr>;
    EXPECT_DEATH(
        {
            TagStore store(2 * Lines::storageBytes(4, 2), "two arrays");
            Lines first(4, 2, 7, store);
            Lines second(4, 2, 7, store);
            const volatile CacheLine *past = first.entryData() + 4 * 2;
            (void)past->addr;
        },
        "use-after-poison");
}
#endif

} // namespace
} // namespace hmg
