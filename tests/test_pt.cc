/**
 * @file
 * Unit tests for src/pt: PTE encoding and the radix page table.
 */

#include <gtest/gtest.h>

#include "os/buddy_allocator.hh"
#include "os/pt_allocators.hh"
#include "pt/page_table.hh"
#include "pt/pte.hh"

using namespace asap;

TEST(Pte, EncodeDecode)
{
    const Pte pte = Pte::make(0x12345, false);
    EXPECT_TRUE(pte.present());
    EXPECT_TRUE(pte.writable());
    EXPECT_TRUE(pte.user());
    EXPECT_FALSE(pte.huge());
    EXPECT_EQ(pte.pfn(), 0x12345u);
}

TEST(Pte, ArchitecturalBitPositions)
{
    const Pte pte = Pte::make(1, true, false);
    EXPECT_EQ(pte.raw() & 1, 1u);                  // P at bit 0
    EXPECT_EQ(pte.raw() & (1u << 7), 1u << 7);     // PS at bit 7
    EXPECT_EQ(pte.raw() & (1u << 1), 0u);          // not writable
    EXPECT_EQ((pte.raw() >> 12) & 0xfffff, 1u);    // pfn at bit 12
}

TEST(Pte, LeafSemantics)
{
    const Pte small = Pte::make(5, false);
    const Pte huge = Pte::make(512, true);
    EXPECT_TRUE(small.isLeaf(1));
    EXPECT_FALSE(small.isLeaf(2));
    EXPECT_TRUE(huge.isLeaf(2));
    EXPECT_TRUE(huge.isLeaf(3));
}

TEST(Pte, AccessedDirty)
{
    Pte pte = Pte::make(7);
    EXPECT_FALSE(pte.accessed());
    pte.setAccessed();
    EXPECT_TRUE(pte.accessed());
    EXPECT_FALSE(pte.dirty());
    pte.setDirty();
    EXPECT_TRUE(pte.dirty());
    EXPECT_EQ(pte.pfn(), 7u);   // flags don't clobber the frame
}

TEST(Pte, ClearInvalidates)
{
    Pte pte = Pte::make(9);
    pte.clear();
    EXPECT_FALSE(pte.present());
}

namespace
{

struct PtFixture : public ::testing::Test
{
    PtFixture() : buddy(1 << 16), allocator(buddy), pt(allocator) {}

    BuddyAllocator buddy;
    BuddyPtAllocator allocator;
    PageTable pt;
};

} // namespace

TEST_F(PtFixture, RootExistsFromBirth)
{
    EXPECT_NE(pt.rootPfn(), invalidPfn);
    EXPECT_EQ(pt.nodeCount(), 1u);
    EXPECT_EQ(pt.levels(), 4u);
}

TEST_F(PtFixture, MapLookupRoundTrip)
{
    pt.map(0x7f0000001000, 0xabc);
    const auto t = pt.lookup(0x7f0000001000);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->pfn, 0xabcu);
    EXPECT_EQ(t->leafLevel, 1u);
    EXPECT_EQ(t->physAddrOf(0x7f0000001234), (0xabcull << 12) | 0x234);
}

TEST_F(PtFixture, UnmappedLookupFails)
{
    EXPECT_FALSE(pt.lookup(0x1000).has_value());
    pt.map(0x1000, 1);
    EXPECT_FALSE(pt.lookup(0x2000).has_value());
}

TEST_F(PtFixture, IntermediateNodesCreatedOnDemand)
{
    pt.map(0x1000, 1);
    // Root + PL3 + PL2 + PL1 nodes.
    EXPECT_EQ(pt.nodeCount(), 4u);
    // A second page in the same 2MB region reuses all intermediates.
    pt.map(0x2000, 2);
    EXPECT_EQ(pt.nodeCount(), 4u);
    // A page 2MB away needs a fresh PL1 node only.
    pt.map(0x1000 + (2ull << 20), 3);
    EXPECT_EQ(pt.nodeCount(), 5u);
}

TEST_F(PtFixture, NodeCountsPerLevel)
{
    pt.map(0x1000, 1);
    EXPECT_EQ(pt.nodeCountAtLevel(4), 1u);
    EXPECT_EQ(pt.nodeCountAtLevel(3), 1u);
    EXPECT_EQ(pt.nodeCountAtLevel(2), 1u);
    EXPECT_EQ(pt.nodeCountAtLevel(1), 1u);
}

TEST_F(PtFixture, UnmapClearsLeafKeepsNodes)
{
    pt.map(0x1000, 1);
    pt.unmap(0x1000);
    EXPECT_FALSE(pt.lookup(0x1000).has_value());
    EXPECT_EQ(pt.nodeCount(), 4u);   // intermediates retained
    pt.map(0x1000, 2);               // remap reuses them
    EXPECT_EQ(pt.nodeCount(), 4u);
}

TEST_F(PtFixture, RemapOverwrites)
{
    pt.map(0x1000, 1);
    pt.map(0x1000, 99);
    EXPECT_EQ(pt.lookup(0x1000)->pfn, 99u);
}

TEST_F(PtFixture, HugePage2MbLeafAtPl2)
{
    const VirtAddr base = 4ull << 21;   // 2MB aligned
    pt.map(base, 0x4000, /*leafLevel=*/2);
    const auto t = pt.lookup(base + 0x12345);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->leafLevel, 2u);
    // Offset within the 2MB page is preserved.
    EXPECT_EQ(t->physAddrOf(base + 0x12345),
              (0x4000ull << 12) + 0x12345);
    // No PL1 node was created.
    EXPECT_EQ(pt.nodeCountAtLevel(1), 0u);
}

TEST_F(PtFixture, HugePage1GbLeafAtPl3)
{
    const VirtAddr base = 2ull << 30;
    pt.map(base, 0x40000, /*leafLevel=*/3);
    const auto t = pt.lookup(base + 0x123456);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->leafLevel, 3u);
    EXPECT_EQ(pt.nodeCountAtLevel(2), 0u);
}

TEST_F(PtFixture, ReadEntryMatchesWalkPath)
{
    pt.map(0x1000, 0x42);
    Pfn node = pt.rootPfn();
    for (unsigned level = 4; level >= 2; --level) {
        const Pte entry = pt.readEntry(node, 0x1000, level);
        ASSERT_TRUE(entry.present());
        ASSERT_FALSE(entry.isLeaf(level));
        node = entry.pfn();
    }
    const Pte leaf = pt.readEntry(node, 0x1000, 1);
    EXPECT_TRUE(leaf.present());
    EXPECT_EQ(leaf.pfn(), 0x42u);
}

TEST_F(PtFixture, EntryPhysAddr)
{
    const Pfn node = 0x100;
    // VA with PL1 index 3 -> entry at node base + 3*8.
    const VirtAddr va = 3u << 12;
    EXPECT_EQ(PageTable::entryPhysAddr(node, va, 1),
              (0x100ull << 12) + 24);
    // PL2 index for va = 5 << 21.
    EXPECT_EQ(PageTable::entryPhysAddr(node, VirtAddr{5} << 21, 2),
              (0x100ull << 12) + 40);
}

TEST_F(PtFixture, ContiguousRegionCounting)
{
    // Buddy hands out ascending frames on a fresh allocator, so the
    // first mapping's four nodes are contiguous: one region.
    pt.map(0x1000, 1);
    EXPECT_EQ(pt.countContiguousRegions(), 1u);
}

TEST(PageTable5Level, FiveLevelWalkDepth)
{
    BuddyAllocator buddy(1 << 16);
    BuddyPtAllocator allocator(buddy);
    PageTable pt(allocator, 5);
    EXPECT_EQ(pt.levels(), 5u);
    // A 52-bit VA exercises the PL5 index.
    const VirtAddr va = (VirtAddr{3} << 48) | 0x1000;
    pt.map(va, 0x77);
    EXPECT_EQ(pt.lookup(va)->pfn, 0x77u);
    // Root + PL4 + PL3 + PL2 + PL1 nodes = 5.
    EXPECT_EQ(pt.nodeCount(), 5u);
    // Different PL5 index is not visible.
    EXPECT_FALSE(pt.lookup(0x1000).has_value());
}

TEST(PageTableScatter, BuddyPlacementInterleavesNodes)
{
    // Interleave data-frame allocations with PT-node creation, as
    // demand paging does: node frames must end up non-contiguous.
    BuddyAllocator buddy(1 << 18);
    BuddyPtAllocator allocator(buddy);
    PageTable pt(allocator);
    for (unsigned i = 0; i < 64; ++i) {
        const Pfn data = buddy.allocFrame();
        pt.map(0x10000000ull + i * (2ull << 20), data);
    }
    EXPECT_GT(pt.countContiguousRegions(), 10u);
}

/** Parameterized: map/lookup round-trips across the VA space. */
class PtMapSweep : public ::testing::TestWithParam<VirtAddr>
{};

TEST_P(PtMapSweep, RoundTrip)
{
    BuddyAllocator buddy(1 << 16);
    BuddyPtAllocator allocator(buddy);
    PageTable pt(allocator);
    const VirtAddr va = GetParam();
    pt.map(va, 0x5a5a);
    ASSERT_TRUE(pt.lookup(va).has_value());
    EXPECT_EQ(pt.lookup(va)->pfn, 0x5a5au);
    EXPECT_EQ(pt.lookup(va)->pteAddr & 7, 0u);   // 8B aligned entries
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PtMapSweep,
    ::testing::Values(0x0ull, 0x1000ull, 0x1ff000ull, 0x200000ull,
                      0x3fffffff000ull, 0x7f1234567000ull,
                      0xffffffff000ull));
