/**
 * @file
 * Unit tests for src/tlb: plain TLB, Clustered TLB, and the hierarchy.
 */

#include <gtest/gtest.h>

#include "os/buddy_allocator.hh"
#include "os/pt_allocators.hh"
#include "pt/page_table.hh"
#include "tlb/tlb.hh"

using namespace asap;

namespace
{

Translation
xlate(Pfn pfn, unsigned level = 1)
{
    Translation t;
    t.pfn = pfn;
    t.leafLevel = level;
    return t;
}

} // namespace

TEST(Tlb, MissThenFillThenHit)
{
    Tlb tlb({"t", 64, 8});
    EXPECT_FALSE(tlb.lookup(0x1000).has_value());
    tlb.fill(0x1000, xlate(0x42));
    const auto t = tlb.lookup(0x1fff);     // same page
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->pfn, 0x42u);
    EXPECT_FALSE(tlb.lookup(0x2000).has_value());
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 2u);
}

TEST(Tlb, LruEvictionWithinSet)
{
    // 2 entries, 2 ways: one set.
    Tlb tlb({"t", 2, 2});
    tlb.fill(0x1000, xlate(1));
    tlb.fill(0x2000, xlate(2));
    tlb.lookup(0x1000);                    // refresh 0x1000
    tlb.fill(0x3000, xlate(3));            // evicts 0x2000
    EXPECT_TRUE(tlb.lookup(0x1000).has_value());
    EXPECT_FALSE(tlb.lookup(0x2000).has_value());
    EXPECT_TRUE(tlb.lookup(0x3000).has_value());
}

TEST(Tlb, HugePageEntryCoversTwoMb)
{
    Tlb tlb({"t", 64, 8});
    const VirtAddr base = 10ull << 21;
    tlb.fill(base, xlate(0x8000, 2));
    const auto t = tlb.lookup(base + 0x123456);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->leafLevel, 2u);
    EXPECT_EQ(t->physAddrOf(base + 0x123456),
              (0x8000ull << 12) + 0x123456);
    EXPECT_FALSE(tlb.lookup(base + (2ull << 21)).has_value());
}

TEST(Tlb, MixedPageSizesCoexist)
{
    Tlb tlb({"t", 64, 8});
    tlb.fill(0x1000, xlate(1, 1));
    tlb.fill(5ull << 21, xlate(512, 2));
    EXPECT_EQ(tlb.lookup(0x1000)->leafLevel, 1u);
    EXPECT_EQ(tlb.lookup((5ull << 21) + 0x5000)->leafLevel, 2u);
}

TEST(Tlb, LevelMaskRejectsUnsupportedSizes)
{
    Tlb tlb({"t4k", 64, 8, 0b001});   // 4KB only
    tlb.fill(0x1000, xlate(1, 1));
    EXPECT_TRUE(tlb.lookup(0x1000).has_value());
}

TEST(Tlb, FlushEmptiesEverything)
{
    Tlb tlb({"t", 64, 8});
    tlb.fill(0x1000, xlate(1));
    tlb.flushEntries();
    EXPECT_FALSE(tlb.lookup(0x1000).has_value());
}

TEST(Tlb, RefillSamePageUpdatesTranslation)
{
    Tlb tlb({"t", 64, 8});
    tlb.fill(0x1000, xlate(1));
    tlb.fill(0x1000, xlate(2));
    EXPECT_EQ(tlb.lookup(0x1000)->pfn, 2u);
}

/** Parameterized capacity: N distinct pages fit iff N <= entries (full
 *  assoc case). */
class TlbCapacity : public ::testing::TestWithParam<unsigned>
{};

TEST_P(TlbCapacity, HoldsExactlyCapacityFullyAssociative)
{
    const unsigned entries = GetParam();
    Tlb tlb({"t", entries, entries});   // fully associative
    for (unsigned i = 0; i < entries; ++i)
        tlb.fill(static_cast<VirtAddr>(i) << pageShift, xlate(i));
    for (unsigned i = 0; i < entries; ++i)
        EXPECT_TRUE(tlb.lookup(static_cast<VirtAddr>(i) << pageShift)
                        .has_value());
    tlb.fill(static_cast<VirtAddr>(entries) << pageShift, xlate(999));
    unsigned present = 0;
    for (unsigned i = 0; i <= entries; ++i) {
        if (tlb.lookup(static_cast<VirtAddr>(i) << pageShift))
            ++present;
    }
    EXPECT_EQ(present, entries);   // exactly one was evicted
}

INSTANTIATE_TEST_SUITE_P(Sizes, TlbCapacity,
                         ::testing::Values(4u, 8u, 16u, 64u));

// ---------------------------------------------------------------------
// Clustered TLB (Section 5.4.1 baseline)
// ---------------------------------------------------------------------

namespace
{

struct ClusteredFixture : public ::testing::Test
{
    ClusteredFixture() : buddy(1 << 16), allocator(buddy), pt(allocator)
    {}

    /** Map @p count pages from @p vpn with the given frame values. */
    void
    mapRange(Vpn vpn, std::initializer_list<Pfn> pfns)
    {
        Vpn v = vpn;
        for (const Pfn pfn : pfns)
            pt.map((v++) << pageShift, pfn);
    }

    BuddyAllocator buddy;
    BuddyPtAllocator allocator;
    PageTable pt;
    TlbConfig config{"ctlb", 64, 8};
};

} // namespace

TEST_F(ClusteredFixture, CoalescesAlignedContiguousCluster)
{
    // 8 pages, frames in the same aligned 8-frame cluster.
    mapRange(8, {64, 65, 66, 67, 68, 69, 70, 71});
    ClusteredTlb tlb(config);
    tlb.fill(8ull << pageShift, *pt.lookup(8ull << pageShift), pt);
    // All eight neighbours hit from the single fill.
    for (Vpn v = 8; v < 16; ++v) {
        const auto t = tlb.lookup(v << pageShift);
        ASSERT_TRUE(t.has_value()) << v;
        EXPECT_EQ(t->pfn, 64 + (v - 8));
    }
}

TEST_F(ClusteredFixture, CoalescesPermutedCluster)
{
    // Clustered TLB (unlike CoLT) tolerates permutation within the
    // physical cluster.
    mapRange(16, {71, 70, 69, 68, 67, 66, 65, 64});
    ClusteredTlb tlb(config);
    tlb.fill(16ull << pageShift, *pt.lookup(16ull << pageShift), pt);
    for (Vpn v = 16; v < 24; ++v) {
        const auto t = tlb.lookup(v << pageShift);
        ASSERT_TRUE(t.has_value());
        EXPECT_EQ(t->pfn, 71 - (v - 16));
    }
}

TEST_F(ClusteredFixture, ScatteredFramesDoNotCoalesce)
{
    // Frames in different physical clusters: only the triggering page
    // is covered.
    mapRange(24, {64, 128, 72, 200, 80, 300, 90, 400});
    ClusteredTlb tlb(config);
    tlb.fill(24ull << pageShift, *pt.lookup(24ull << pageShift), pt);
    EXPECT_TRUE(tlb.lookup(24ull << pageShift).has_value());
    for (Vpn v = 25; v < 32; ++v)
        EXPECT_FALSE(tlb.lookup(v << pageShift).has_value()) << v;
}

TEST_F(ClusteredFixture, PartialClusterCoalesces)
{
    // Only 4 of 8 pages mapped, all in one physical cluster.
    mapRange(32, {64, 65, 66, 67});
    ClusteredTlb tlb(config);
    tlb.fill(32ull << pageShift, *pt.lookup(32ull << pageShift), pt);
    for (Vpn v = 32; v < 36; ++v)
        EXPECT_TRUE(tlb.lookup(v << pageShift).has_value());
    EXPECT_FALSE(tlb.lookup(36ull << pageShift).has_value());
}

TEST_F(ClusteredFixture, UnalignedPhysicalRunSplitsAcrossClusters)
{
    // VPNs 40..47 -> PFNs 66..73: spans two aligned frame clusters
    // (64..71 and 72..79). Only pages whose frame lands in the
    // trigger's cluster coalesce.
    mapRange(40, {66, 67, 68, 69, 70, 71, 72, 73});
    ClusteredTlb tlb(config);
    tlb.fill(40ull << pageShift, *pt.lookup(40ull << pageShift), pt);
    for (Vpn v = 40; v < 46; ++v)    // frames 66..71: cluster 8
        EXPECT_TRUE(tlb.lookup(v << pageShift).has_value()) << v;
    EXPECT_FALSE(tlb.lookup(46ull << pageShift).has_value());
}

TEST_F(ClusteredFixture, EvictionReplacesWholeEntry)
{
    ClusteredTlb tlb({"c", 1, 1});
    mapRange(8, {64, 65});
    mapRange(512, {128, 129});
    tlb.fill(8ull << pageShift, *pt.lookup(8ull << pageShift), pt);
    tlb.fill(512ull << pageShift, *pt.lookup(512ull << pageShift), pt);
    EXPECT_FALSE(tlb.lookup(8ull << pageShift).has_value());
    EXPECT_TRUE(tlb.lookup(513ull << pageShift).has_value());
}

TEST_F(ClusteredFixture, LargePageFillIgnored)
{
    ClusteredTlb tlb(config);
    Translation huge = xlate(512, 2);
    tlb.fill(0x400000, huge, pt);
    EXPECT_FALSE(tlb.lookup(0x400000).has_value());
}

// ---------------------------------------------------------------------
// TlbHierarchy
// ---------------------------------------------------------------------

TEST(TlbHierarchy, L2HitPromotesToL1)
{
    TlbHierarchy::Config config;
    config.l1 = {"l1", 4, 4};
    config.l2 = {"l2", 64, 8};
    TlbHierarchy tlb(config);
    tlb.fill(0x1000, xlate(1));
    // Evict from the tiny L1 by filling other pages.
    for (int i = 2; i <= 6; ++i)
        tlb.fill(static_cast<VirtAddr>(i) << pageShift, xlate(i));
    const auto first = tlb.lookup(0x1000);
    EXPECT_EQ(first.level, TlbHitLevel::L2);
    const auto second = tlb.lookup(0x1000);
    EXPECT_EQ(second.level, TlbHitLevel::L1);   // promoted
}

TEST(TlbHierarchy, MissesCountedAtL2Boundary)
{
    TlbHierarchy tlb(TlbHierarchy::Config{});
    tlb.lookup(0x1000);
    tlb.lookup(0x2000);
    EXPECT_EQ(tlb.l2Misses(), 2u);
    tlb.fill(0x1000, xlate(1));
    tlb.lookup(0x1000);
    EXPECT_EQ(tlb.l2Misses(), 2u);
    EXPECT_EQ(tlb.lookups(), 3u);
}

TEST(TlbHierarchy, ClusteredL2IncreasesReach)
{
    BuddyAllocator buddy(1 << 16);
    BuddyPtAllocator allocator(buddy);
    PageTable pt(allocator);
    // 64 VA-contiguous pages backed by 64 contiguous frames.
    for (Vpn v = 0; v < 64; ++v)
        pt.map(v << pageShift, 256 + v);

    TlbHierarchy::Config plainConfig;
    plainConfig.l1 = {"l1", 4, 4};
    plainConfig.l2 = {"l2", 4, 4};
    TlbHierarchy plain(plainConfig);

    TlbHierarchy::Config clusteredConfig = plainConfig;
    clusteredConfig.clusteredL2 = true;
    TlbHierarchy clustered(clusteredConfig);

    // Fill with every 8th page, then probe all 64 pages.
    for (Vpn v = 0; v < 64; v += 8) {
        plain.fill(v << pageShift, *pt.lookup(v << pageShift), &pt);
        clustered.fill(v << pageShift, *pt.lookup(v << pageShift), &pt);
    }
    unsigned plainHits = 0, clusteredHits = 0;
    for (Vpn v = 0; v < 64; ++v) {
        if (plain.lookup(v << pageShift).hit())
            ++plainHits;
        if (clustered.lookup(v << pageShift).hit())
            ++clusteredHits;
    }
    EXPECT_LE(plainHits, 8u);
    // The 4-entry clustered TLB retains 4 cluster entries x 8 pages.
    EXPECT_EQ(clusteredHits, 32u);
    EXPECT_GT(clusteredHits, 3 * plainHits);
}

TEST(TlbHierarchy, ClusteredHitReturnsCorrectFrame)
{
    BuddyAllocator buddy(1 << 16);
    BuddyPtAllocator allocator(buddy);
    PageTable pt(allocator);
    for (Vpn v = 0; v < 8; ++v)
        pt.map(v << pageShift, 512 + v);
    TlbHierarchy::Config config;
    config.clusteredL2 = true;
    TlbHierarchy tlb(config);
    tlb.fill(0, *pt.lookup(0), &pt);
    for (Vpn v = 0; v < 8; ++v) {
        const auto res = tlb.lookup(v << pageShift);
        ASSERT_TRUE(res.hit());
        EXPECT_EQ(res.translation.pfn, 512 + v);
    }
}

TEST(TlbHierarchy, PaperGeometryDefaults)
{
    TlbHierarchy::Config config;
    EXPECT_EQ(config.l1.entries, 64u);
    EXPECT_EQ(config.l1.ways, 8u);
    EXPECT_EQ(config.l2.entries, 1536u);
    EXPECT_EQ(config.l2.ways, 6u);
}
