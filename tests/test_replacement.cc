/**
 * @file
 * Replacement-policy pins: the set-associative clients (Cache, Tlb,
 * ClusteredTlb, PageWalkCaches) against a model of true LRU in which
 * each set is a vector held in recency order, most recently used
 * first.
 *
 * The differential tests drive each client with 100k+ seeded random
 * operations through its public calls only and compare, after every
 * operation, hit or miss, the translation or child returned, the hit
 * and miss counters and the valid-entry count. The two directed tests
 * cover the paths where the order of the surviving ways matters: a
 * targeted invalidation that drops a middle way, and a clustered TLB
 * holding both halves of a VPN cluster under one tag.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mem/cache.hh"
#include "os/buddy_allocator.hh"
#include "os/pt_allocators.hh"
#include "pt/page_table.hh"
#include "tlb/tlb.hh"
#include "walk/pwc.hh"

using namespace asap;

namespace
{

/** Random operations per client geometry. */
constexpr unsigned numOps = 100'000;

/** True LRU over one structure: each set lists its entries in recency
 *  order, most recently used first. */
template <typename Entry>
class LruModel
{
  public:
    LruModel(std::uint64_t numSets, unsigned ways)
        : sets_(numSets), ways_(ways)
    {}

    /** The entry @p match accepts in set @p set, or nullptr; the
     *  order is left alone (a probe). */
    template <typename Match>
    const Entry *
    find(std::uint64_t set, Match match) const
    {
        const auto &entries = sets_[set];
        const auto it = std::find_if(entries.begin(), entries.end(), match);
        return it == entries.end() ? nullptr : &*it;
    }

    /** Like find, but the entry found becomes most recently used. */
    template <typename Match>
    Entry *
    touch(std::uint64_t set, Match match)
    {
        auto &entries = sets_[set];
        const auto it = std::find_if(entries.begin(), entries.end(), match);
        if (it == entries.end())
            return nullptr;
        std::rotate(entries.begin(), it, it + 1);
        return &entries.front();
    }

    /** Insert @p entry as most recently used, evicting the least
     *  recently used entry of a full set. */
    void
    fill(std::uint64_t set, const Entry &entry)
    {
        auto &entries = sets_[set];
        if (entries.size() == ways_)
            entries.pop_back();
        entries.insert(entries.begin(), entry);
    }

    /** Drop every entry @p drop accepts; survivors keep their order.
     *  @return entries dropped. */
    template <typename Drop>
    std::uint64_t
    invalidate(Drop drop)
    {
        std::uint64_t dropped = 0;
        for (auto &entries : sets_) {
            const auto keep =
                std::stable_partition(entries.begin(), entries.end(),
                                      [&](const Entry &e) { return !drop(e); });
            dropped += static_cast<std::uint64_t>(entries.end() - keep);
            entries.erase(keep, entries.end());
        }
        return dropped;
    }

    void
    clear()
    {
        for (auto &entries : sets_)
            entries.clear();
    }

    std::uint64_t
    size() const
    {
        std::uint64_t total = 0;
        for (const auto &entries : sets_)
            total += entries.size();
        return total;
    }

  private:
    std::vector<std::vector<Entry>> sets_;
    std::size_t ways_;
};

bool
overlaps(VirtAddr base, std::uint64_t span, VirtAddr start, VirtAddr end)
{
    return base < end && base + span > start;
}

// ---------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------

void
checkCacheAgainstModel(std::uint64_t sets, unsigned ways,
                       std::uint64_t seed)
{
    CacheConfig config;
    config.name = "pin";
    config.ways = ways;
    config.sizeBytes = (sets * ways) << lineShift;
    Cache cache(config);
    LruModel<std::uint64_t> model(sets, ways);
    Rng rng(seed);
    // Twice the lines the cache holds: hits, misses and evictions all
    // stay frequent.
    const std::uint64_t lines = 2 * sets * ways;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    for (unsigned op = 0; op < numOps; ++op) {
        const std::uint64_t line = rng.below(lines);
        const PhysAddr paddr = (line << lineShift) | rng.below(lineSize);
        const std::uint64_t set = line & (sets - 1);
        const auto same = [line](std::uint64_t l) { return l == line; };
        if (rng.below(6) < 5) {
            const bool hit = model.touch(set, same) != nullptr;
            if (!hit)
                model.fill(set, line);
            ++(hit ? hits : misses);
            ASSERT_EQ(cache.accessAndFill(paddr), hit) << "op " << op;
        } else {
            const bool present = model.find(set, same) != nullptr;
            ASSERT_EQ(cache.probe(paddr), present) << "op " << op;
        }
        ASSERT_EQ(cache.hits(), hits) << "op " << op;
        ASSERT_EQ(cache.misses(), misses) << "op " << op;
    }
}

// ---------------------------------------------------------------------
// Tlb
// ---------------------------------------------------------------------

struct TlbEntry
{
    std::uint64_t tag;  ///< va >> levelShift(level)
    unsigned level;
    std::uint16_t asid;
    Pfn pfn;
};

void
checkTlbAgainstModel(unsigned entries, unsigned ways, std::uint64_t seed)
{
    Tlb tlb({"pin", entries, ways});
    const std::uint64_t sets = entries / ways;
    LruModel<TlbEntry> model(sets, ways);
    Rng rng(seed);
    const VirtAddr base = 0x7f0000000000;
    // 4 KB pages fill the low part of the 2 MB regions, so a 4 KB and a
    // 2 MB entry can cover the same address (the 4 KB one wins).
    const std::uint64_t smallPages = 4 * entries;
    const std::uint64_t hugePages = entries;
    std::uint16_t asid = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    const auto lookupModel = [&](VirtAddr va) -> const TlbEntry * {
        for (unsigned level = 1; level <= 2; ++level) {
            const std::uint64_t tag = va >> levelShift(level);
            const TlbEntry *hit =
                model.touch(tag & (sets - 1), [&](const TlbEntry &e) {
                    return e.tag == tag && e.level == level &&
                           e.asid == asid;
                });
            if (hit)
                return hit;
        }
        return nullptr;
    };
    const auto fillBoth = [&](VirtAddr va, unsigned level, Pfn pfn) {
        const std::uint64_t tag = va >> levelShift(level);
        TlbEntry *entry =
            model.touch(tag & (sets - 1), [&](const TlbEntry &e) {
                return e.tag == tag && e.level == level && e.asid == asid;
            });
        if (entry)
            entry->pfn = pfn;
        else
            model.fill(tag & (sets - 1), {tag, level, asid, pfn});
        Translation t;
        t.pfn = pfn;
        t.leafLevel = level;
        tlb.fill(va, t);
    };

    for (unsigned op = 0; op < numOps; ++op) {
        const bool huge = rng.below(4) == 0;
        const unsigned level = huge ? 2 : 1;
        const VirtAddr va =
            huge ? base + (rng.below(hugePages) << levelShift(2)) +
                       rng.below(levelSpan(2))
                 : base + (rng.below(smallPages) << pageShift) +
                       rng.below(pageSize);
        const std::uint64_t kind = rng.below(64);
        if (kind < 44) {
            // The hierarchy's pattern: look up, fill on a miss.
            const TlbEntry *expect = lookupModel(va);
            Translation out;
            const bool hit = tlb.lookup(va, out);
            ASSERT_EQ(hit, expect != nullptr) << "op " << op;
            if (hit) {
                ++hits;
                ASSERT_EQ(out.pfn, expect->pfn) << "op " << op;
                ASSERT_EQ(out.leafLevel, expect->level) << "op " << op;
            } else {
                ++misses;
                fillBoth(va, level, rng.below(Pfn{1} << 30));
            }
        } else if (kind < 60) {
            fillBoth(va, level, rng.below(Pfn{1} << 30));
        } else if (kind < 62) {
            const VirtAddr start = va & ~(pageSize - 1);
            const VirtAddr end =
                start + ((1 + rng.below(1024)) << pageShift);
            const std::uint64_t dropped =
                model.invalidate([&](const TlbEntry &e) {
                    return e.asid == asid &&
                           overlaps(e.tag << levelShift(e.level),
                                    levelSpan(e.level), start, end);
                });
            ASSERT_EQ(tlb.invalidateRange(start, end), dropped)
                << "op " << op;
        } else if (kind < 63) {
            asid = static_cast<std::uint16_t>(rng.below(4));
            tlb.setAsid(asid);
        } else if (rng.below(16) == 0) {
            model.clear();
            tlb.flushEntries();
        }
        ASSERT_EQ(tlb.hits(), hits) << "op " << op;
        ASSERT_EQ(tlb.misses(), misses) << "op " << op;
        ASSERT_EQ(tlb.validEntries(), model.size()) << "op " << op;
    }
}

// ---------------------------------------------------------------------
// PageWalkCaches
// ---------------------------------------------------------------------

struct PwcEntry
{
    std::uint64_t tag;  ///< va >> levelShift(level)
    Pfn childPfn;
    PtNodeIndex childIndex;
};

void
checkPwcAgainstModel(const PwcConfig &config, std::uint64_t seed)
{
    PageWalkCaches pwc(config);
    std::vector<LruModel<PwcEntry>> models;
    std::uint64_t setCount[numPtLevels + 1] = {};
    for (unsigned level = 0; level <= numPtLevels; ++level) {
        const auto &geometry = config.level[level];
        const unsigned ways =
            geometry.ways == 0 ? geometry.entries : geometry.ways;
        setCount[level] = ways == 0 ? 0 : geometry.entries / ways;
        models.emplace_back(setCount[level], ways);
    }
    Rng rng(seed);
    std::uint64_t hits = 0;
    std::uint64_t lookups = 0;

    const auto insertBoth = [&](unsigned level, VirtAddr va) {
        const Pfn pfn = rng.below(Pfn{1} << 30);
        const auto index = static_cast<PtNodeIndex>(rng.below(1u << 20));
        pwc.insert(level, va, pfn, index);
        if (setCount[level] == 0)
            return;
        const std::uint64_t tag = va >> levelShift(level);
        const std::uint64_t set = tag & (setCount[level] - 1);
        PwcEntry *entry = models[level].touch(
            set, [tag](const PwcEntry &e) { return e.tag == tag; });
        if (entry)
            *entry = {tag, pfn, index};
        else
            models[level].fill(set, {tag, pfn, index});
    };
    const auto modelSize = [&] {
        std::uint64_t total = 0;
        for (const auto &model : models)
            total += model.size();
        return total;
    };

    for (unsigned op = 0; op < numOps; ++op) {
        // Few PL4 tags, more PL3 and many PL2 tags, as in a real VA
        // layout.
        const VirtAddr va = (rng.below(3) << levelShift(4)) |
                            (rng.below(8) << levelShift(3)) |
                            (rng.below(64) << levelShift(2)) |
                            rng.below(levelSpan(2));
        const std::uint64_t kind = rng.below(64);
        if (kind < 48) {
            // The walker's pattern: the deepest hit, then one insert
            // per level walked below it.
            ++lookups;
            PageWalkCaches::Hit expect;
            for (unsigned level = 2; level <= numPtLevels; ++level) {
                if (setCount[level] == 0)
                    continue;
                const std::uint64_t tag = va >> levelShift(level);
                const PwcEntry *entry = models[level].touch(
                    tag & (setCount[level] - 1),
                    [tag](const PwcEntry &e) { return e.tag == tag; });
                if (entry) {
                    expect = {level, entry->childPfn, entry->childIndex};
                    break;
                }
            }
            const PageWalkCaches::Hit hit = pwc.lookupDeepest(va);
            ASSERT_EQ(hit.level, expect.level) << "op " << op;
            ASSERT_EQ(hit.childPfn, expect.childPfn) << "op " << op;
            ASSERT_EQ(hit.childIndex, expect.childIndex) << "op " << op;
            if (hit.valid())
                ++hits;
            const unsigned top =
                hit.valid() ? hit.level - 1 : numPtLevels;
            for (unsigned level = top; level >= 2; --level)
                insertBoth(level, va);
        } else if (kind < 62) {
            insertBoth(2 + static_cast<unsigned>(rng.below(3)), va);
        } else {
            const VirtAddr start = va & ~(pageSize - 1);
            const VirtAddr end =
                start + ((1 + rng.below(1024)) << pageShift);
            std::uint64_t dropped = 0;
            for (unsigned level = 2; level <= numPtLevels; ++level) {
                dropped += models[level].invalidate(
                    [&](const PwcEntry &e) {
                        return overlaps(e.tag << levelShift(level),
                                        levelSpan(level), start, end);
                    });
            }
            ASSERT_EQ(pwc.invalidateRange(start, end), dropped)
                << "op " << op;
        }
        ASSERT_EQ(pwc.hits(), hits) << "op " << op;
        ASSERT_EQ(pwc.lookups(), lookups) << "op " << op;
        ASSERT_EQ(pwc.validEntries(), modelSize()) << "op " << op;
    }
}

Translation
xlate(Pfn pfn)
{
    Translation t;
    t.pfn = pfn;
    t.leafLevel = 1;
    return t;
}

} // namespace

TEST(ReplacementPin, CacheMatchesTrueLru)
{
    checkCacheAgainstModel(1, 8, 11);
    checkCacheAgainstModel(64, 20, 12);
    checkCacheAgainstModel(512, 8, 13);
}

TEST(ReplacementPin, TlbMatchesTrueLru)
{
    checkTlbAgainstModel(64, 8, 21);
    checkTlbAgainstModel(1536, 6, 22);
}

TEST(ReplacementPin, PwcMatchesTrueLru)
{
    checkPwcAgainstModel(PwcConfig{}, 31);
    checkPwcAgainstModel(PwcConfig{}.scaled(4), 32);
}

TEST(ReplacementPin, InvalidatedMiddleWayKeepsSurvivorOrder)
{
    // One 4-way set. After the fills and the lookup of a, recency is
    // a, d, c, b. Dropping d (a middle way) must leave a, c, b, so the
    // next two fills evict b and then c.
    Tlb tlb({"t", 4, 4});
    const auto page = [](Vpn vpn) { return vpn << pageShift; };
    for (Vpn vpn = 1; vpn <= 4; ++vpn)   // a=1, b=2, c=3, d=4
        tlb.fill(page(vpn), xlate(100 + vpn));
    ASSERT_TRUE(tlb.lookup(page(1)).has_value());
    EXPECT_EQ(tlb.invalidateRange(page(4), page(5)), 1u);
    EXPECT_EQ(tlb.validEntries(), 3u);
    tlb.fill(page(5), xlate(105));      // takes the freed way
    tlb.fill(page(6), xlate(106));      // evicts b
    EXPECT_FALSE(tlb.lookup(page(2)).has_value());
    tlb.fill(page(7), xlate(107));      // evicts c
    EXPECT_FALSE(tlb.lookup(page(3)).has_value());
    for (const Vpn vpn : {1, 5, 6, 7}) {
        const auto t = tlb.lookup(page(vpn));
        ASSERT_TRUE(t.has_value()) << vpn;
        EXPECT_EQ(t->pfn, 100 + vpn);
    }
    EXPECT_EQ(tlb.validEntries(), 4u);
}

TEST(ReplacementPin, ClusteredTlbSplitClusterTranslatesEverySubPage)
{
    // VPNs 40..47 -> frames 66..73 straddle frame clusters 8 (66..71)
    // and 9 (72..73): one VPN cluster tag, two entries in one set.
    BuddyAllocator buddy(1 << 16);
    BuddyPtAllocator allocator(buddy);
    PageTable pt(allocator);
    for (Vpn vpn = 40; vpn < 48; ++vpn)
        pt.map(vpn << pageShift, 26 + vpn);
    ClusteredTlb tlb({"c", 2, 2});
    tlb.fill(40ull << pageShift, *pt.lookup(40ull << pageShift), pt);
    tlb.fill(46ull << pageShift, *pt.lookup(46ull << pageShift), pt);
    EXPECT_EQ(tlb.validEntries(), 2u);
    for (const Vpn last : {40, 46, 41, 47}) {
        ASSERT_TRUE(tlb.lookup(last << pageShift).has_value()) << last;
        for (Vpn vpn = 40; vpn < 48; ++vpn) {
            const auto t = tlb.lookup(vpn << pageShift);
            ASSERT_TRUE(t.has_value()) << last << " " << vpn;
            EXPECT_EQ(t->pfn, 26 + vpn) << last << " " << vpn;
        }
        // Touch the same half again so it, not the half the loop
        // ended on, is the most recently used one below.
        ASSERT_TRUE(tlb.lookup(last << pageShift).has_value()) << last;
    }
    // Sub-page 47 was touched last: a third entry evicts the other
    // half (frames 66..71).
    pt.map(512ull << pageShift, 128);
    tlb.fill(512ull << pageShift, *pt.lookup(512ull << pageShift), pt);
    EXPECT_FALSE(tlb.lookup(40ull << pageShift).has_value());
    EXPECT_TRUE(tlb.lookup(47ull << pageShift).has_value());
    EXPECT_TRUE(tlb.lookup(512ull << pageShift).has_value());
}
