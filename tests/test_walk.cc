/**
 * @file
 * Unit tests for src/walk + src/core: PWCs, the 1D walker, and ASAP
 * prefetching (range registers + engine + overlap semantics).
 */

#include <gtest/gtest.h>

#include "core/asap_engine.hh"
#include "core/descriptor_builder.hh"
#include "core/range_registers.hh"
#include "mem/hierarchy.hh"
#include "os/address_space.hh"
#include "os/buddy_allocator.hh"
#include "os/pt_allocators.hh"
#include "walk/pwc.hh"
#include "walk/walker.hh"

using namespace asap;

// ---------------------------------------------------------------------
// Page walk caches
// ---------------------------------------------------------------------

TEST(Pwc, MissOnEmpty)
{
    PageWalkCaches pwc;
    EXPECT_FALSE(pwc.lookupDeepest(0x1000).valid());
}

TEST(Pwc, DeepestHitWins)
{
    PageWalkCaches pwc;
    const VirtAddr va = 0x7f0000123000;
    pwc.insert(4, va, 100);
    pwc.insert(3, va, 200);
    pwc.insert(2, va, 300);
    const auto hit = pwc.lookupDeepest(va);
    ASSERT_TRUE(hit.valid());
    EXPECT_EQ(hit.level, 2u);
    EXPECT_EQ(hit.childPfn, 300u);
}

TEST(Pwc, FallsBackToShallowerLevels)
{
    PageWalkCaches pwc;
    const VirtAddr va = 0x7f0000123000;
    pwc.insert(4, va, 100);
    const auto hit = pwc.lookupDeepest(va);
    ASSERT_TRUE(hit.valid());
    EXPECT_EQ(hit.level, 4u);
    EXPECT_EQ(hit.childPfn, 100u);
}

TEST(Pwc, TagGranularityPerLevel)
{
    PageWalkCaches pwc;
    pwc.insert(2, 0, 42);
    // Same 2MB region hits; the next 2MB region does not.
    EXPECT_TRUE(pwc.lookupDeepest(0x1fffff).valid());
    EXPECT_FALSE(pwc.lookupDeepest(0x200000).valid());
}

TEST(Pwc, CapacityEviction)
{
    // PL4 cache has 2 entries: the third insert evicts the LRU.
    PageWalkCaches pwc;
    pwc.insert(4, 0ull << 39, 1);
    pwc.insert(4, 1ull << 39, 2);
    pwc.lookupDeepest(0ull << 39);          // refresh entry 0
    pwc.insert(4, 2ull << 39, 3);           // evicts entry 1
    EXPECT_TRUE(pwc.lookupDeepest(0ull << 39).valid());
    EXPECT_FALSE(pwc.lookupDeepest(1ull << 39).valid());
    EXPECT_TRUE(pwc.lookupDeepest(2ull << 39).valid());
}

TEST(Pwc, FlushClears)
{
    PageWalkCaches pwc;
    pwc.insert(2, 0x1000, 5);
    pwc.flushEntries();
    EXPECT_FALSE(pwc.lookupDeepest(0x1000).valid());
}

TEST(Pwc, ScaledConfigDoublesEntries)
{
    const PwcConfig base;
    const PwcConfig doubled = base.scaled(2);
    EXPECT_EQ(doubled.level[2].entries, 64u);
    EXPECT_EQ(doubled.level[3].entries, 8u);
    EXPECT_EQ(doubled.level[4].entries, 4u);
}

TEST(Pwc, PaperGeometry)
{
    const PwcConfig config;
    EXPECT_EQ(config.latency, 2u);
    EXPECT_EQ(config.level[2].entries, 32u);    // PL2: 32 entries 4-way
    EXPECT_EQ(config.level[2].ways, 4u);
    EXPECT_EQ(config.level[3].entries, 4u);     // PL3: 4, fully assoc
    EXPECT_EQ(config.level[4].entries, 2u);     // PL4: 2, fully assoc
}

// ---------------------------------------------------------------------
// 1D walker
// ---------------------------------------------------------------------

namespace
{

struct WalkFixture : public ::testing::Test
{
    WalkFixture()
        : buddy(1 << 16), allocator(buddy), pt(allocator), mem(), pwc(),
          walker(pt, mem, pwc)
    {}

    BuddyAllocator buddy;
    BuddyPtAllocator allocator;
    PageTable pt;
    MemoryHierarchy mem;
    PageWalkCaches pwc;
    PageWalker walker;
};

} // namespace

TEST_F(WalkFixture, ColdWalkIsFourDramAccesses)
{
    pt.map(0x1000, 0x42);
    const WalkResult result = walker.walk(0x1000, 0);
    EXPECT_FALSE(result.fault);
    EXPECT_EQ(result.translation.pfn, 0x42u);
    EXPECT_EQ(result.latency, 4 * mem.config().memLatency);
    for (unsigned level = 1; level <= 4; ++level) {
        EXPECT_TRUE(result.requested[level]);
        EXPECT_EQ(result.servedBy[level], MemLevel::Dram);
    }
}

TEST_F(WalkFixture, SecondWalkUsesPwcAndL1)
{
    pt.map(0x1000, 0x42);
    walker.walk(0x1000, 0);
    // PL2 entry now cached in PWC: only the PL1 access remains, and
    // its line sits in L1-D.
    const WalkResult result = walker.walk(0x1000, 1000);
    EXPECT_EQ(result.latency, pwc.latency() + mem.config().l1d.latency);
    EXPECT_EQ(result.servedBy[4], MemLevel::Pwc);
    EXPECT_EQ(result.servedBy[3], MemLevel::Pwc);
    EXPECT_EQ(result.servedBy[2], MemLevel::Pwc);
    EXPECT_EQ(result.servedBy[1], MemLevel::L1D);
}

TEST_F(WalkFixture, FaultOnUnmappedAddress)
{
    const WalkResult result = walker.walk(0x1000, 0);
    EXPECT_TRUE(result.fault);
    EXPECT_EQ(walker.faults(), 1u);
    // Only the root level was requested (its entry is non-present).
    EXPECT_TRUE(result.requested[4]);
    EXPECT_FALSE(result.requested[1]);
}

TEST_F(WalkFixture, PartialFaultWalksDownToMissingLevel)
{
    pt.map(0x1000, 0x42);
    // 2MB away: PL2 entry exists, PL1 entry missing.
    const WalkResult result = walker.walk(0x1000 + (2ull << 20), 0);
    EXPECT_TRUE(result.fault);
    EXPECT_TRUE(result.requested[2]);
}

TEST_F(WalkFixture, HugePageWalkStopsAtPl2)
{
    pt.map(0x400000, 0x4000, /*leafLevel=*/2);
    const WalkResult result = walker.walk(0x400000, 0);
    EXPECT_FALSE(result.fault);
    EXPECT_EQ(result.translation.leafLevel, 2u);
    EXPECT_TRUE(result.requested[2]);
    EXPECT_FALSE(result.requested[1]);   // no PL1 access for 2MB pages
    EXPECT_EQ(result.latency, 3 * mem.config().memLatency);
}

TEST_F(WalkFixture, TranslationMatchesFunctionalLookup)
{
    Rng rng(3);
    for (int i = 0; i < 50; ++i) {
        const VirtAddr va = rng.below(1ull << 30) & ~pageOffsetMask;
        pt.map(va, 1000 + static_cast<Pfn>(i));
        const WalkResult result = walker.walk(va | 0x123, 0);
        const auto expect = pt.lookup(va);
        ASSERT_TRUE(expect.has_value());
        EXPECT_EQ(result.translation.pfn, expect->pfn);
    }
}

TEST_F(WalkFixture, WalkCountsTracked)
{
    pt.map(0x1000, 1);
    walker.walk(0x1000, 0);
    walker.walk(0x1000, 10);
    EXPECT_EQ(walker.walks(), 2u);
}

// ---------------------------------------------------------------------
// Range registers + ASAP engine
// ---------------------------------------------------------------------

TEST(RangeRegisters, LookupMatchesContainingVma)
{
    RangeRegisterFile registers(4);
    VmaDescriptor descriptor;
    descriptor.start = 0x10000;
    descriptor.end = 0x20000;
    ASSERT_TRUE(registers.install(descriptor));
    EXPECT_NE(registers.lookup(0x10000), nullptr);
    EXPECT_NE(registers.lookup(0x1ffff), nullptr);
    EXPECT_EQ(registers.lookup(0x20000), nullptr);
    EXPECT_EQ(registers.hits(), 2u);
    EXPECT_EQ(registers.lookups(), 3u);
}

TEST(RangeRegisters, CapacityBounded)
{
    RangeRegisterFile registers(2);
    VmaDescriptor d;
    d.start = 0;
    d.end = 0x1000;
    EXPECT_TRUE(registers.install(d));
    d.start = 0x2000;
    d.end = 0x3000;
    EXPECT_TRUE(registers.install(d));
    d.start = 0x4000;
    d.end = 0x5000;
    EXPECT_FALSE(registers.install(d));
    EXPECT_EQ(registers.size(), 2u);
}

TEST(RangeRegisters, LevelDescriptorArithmetic)
{
    LevelDescriptor ld;
    ld.valid = true;
    ld.level = 1;
    ld.vaBase = 0x10000000;
    ld.basePa = 0x5000000;
    // Page k within the VMA -> entry at base + k*8.
    EXPECT_EQ(ld.entryAddrOf(0x10000000), 0x5000000u);
    EXPECT_EQ(ld.entryAddrOf(0x10001000), 0x5000008u);
    EXPECT_EQ(ld.entryAddrOf(0x10000000 + 511 * pageSize),
              0x5000000u + 511 * 8);
    // PL2: one entry per 2MB.
    ld.level = 2;
    EXPECT_EQ(ld.entryAddrOf(0x10000000 + 2_MiB), 0x5000008u);
}

namespace
{

/** Full native ASAP stack over a real address space. */
struct AsapWalkFixture : public ::testing::Test
{
    AsapWalkFixture()
        : buddy(1 << 16), asap(buddy, {1, 2}),
          space(buddy, asap, AddressSpaceConfig{}), registers(16)
    {
        space.addObserver(&asap);
        vmaId = space.mmap(32_MiB, "heap", true);
        base = space.vmas().byId(vmaId)->start;
        for (unsigned i = 0; i < 16; ++i)
            space.touch(base + static_cast<VirtAddr>(i) * 2_MiB);
        installDescriptors(registers,
                           buildVmaDescriptors(space.vmas(), asap));
    }

    BuddyAllocator buddy;
    AsapPtAllocator asap;
    AddressSpace space;
    RangeRegisterFile registers;
    std::uint64_t vmaId = 0;
    VirtAddr base = 0;
};

} // namespace

TEST_F(AsapWalkFixture, DescriptorsBuiltForPrefetchableVma)
{
    EXPECT_EQ(registers.size(), 1u);
    const VmaDescriptor *descriptor = registers.lookup(base);
    ASSERT_NE(descriptor, nullptr);
    EXPECT_TRUE(descriptor->levels[1].valid);
    EXPECT_TRUE(descriptor->levels[2].valid);
    EXPECT_FALSE(descriptor->levels[3].valid);
}

TEST_F(AsapWalkFixture, DescriptorComputesActualPteAddress)
{
    const VmaDescriptor *descriptor = registers.lookup(base);
    Rng rng(7);
    for (int i = 0; i < 100; ++i) {
        const VirtAddr va = base + rng.below(32_MiB);
        space.touch(va);
        const auto t = space.translate(alignDown(va, pageSize));
        ASSERT_TRUE(t.has_value());
        EXPECT_EQ(descriptor->levels[1].entryAddrOf(va), t->pteAddr);
    }
}

TEST_F(AsapWalkFixture, EnginePrefetchShortensWalk)
{
    MemoryHierarchy mem;
    PageWalkCaches pwcBase, pwcAsap;
    AsapEngine engine(registers, mem, AsapConfig::p1p2());

    // Baseline walk, cold caches.
    MemoryHierarchy memBase;
    PageWalker baseline(space.pageTable(), memBase, pwcBase);
    const Cycles baseLatency = baseline.walk(base + 0x1000, 0).latency;

    PageWalker accelerated(space.pageTable(), mem, pwcAsap, &engine);
    const Cycles asapLatency = accelerated.walk(base + 0x1000, 0).latency;

    EXPECT_LT(asapLatency, baseLatency);
    EXPECT_GE(engine.issued(), 2u);
    // Cold 4-level walk with P1+P2: PL4 and PL3 are serial DRAM
    // accesses; both prefetches complete during those ~382 cycles, so
    // PL2 and PL1 are exposed as L1 hits (Figure 4b).
    EXPECT_EQ(asapLatency,
              2 * mem.config().memLatency +
                  2 * mem.config().l1d.latency);
}

TEST_F(AsapWalkFixture, PrefetchedWalkYieldsSameTranslation)
{
    // The paper's safety property: ASAP never changes what the walker
    // returns, because the walk still validates everything.
    MemoryHierarchy mem;
    PageWalkCaches pwc;
    AsapEngine engine(registers, mem, AsapConfig::p1p2());
    PageWalker walker(space.pageTable(), mem, pwc, &engine);
    Rng rng(11);
    for (int i = 0; i < 200; ++i) {
        const VirtAddr va = base + rng.below(32_MiB);
        space.touch(va);
        const WalkResult result = walker.walk(va, i * 50);
        const auto expect = space.translate(alignDown(va, pageSize));
        ASSERT_TRUE(expect.has_value());
        EXPECT_FALSE(result.fault);
        EXPECT_EQ(result.translation.pfn, expect->pfn);
    }
}

TEST_F(AsapWalkFixture, EngineMissesOutsideTrackedRanges)
{
    MemoryHierarchy mem;
    AsapEngine engine(registers, mem, AsapConfig::p1());
    engine.onWalkStart(0xdead0000, 0);   // outside every VMA
    EXPECT_EQ(engine.triggers(), 1u);
    EXPECT_EQ(engine.rangeHits(), 0u);
    EXPECT_EQ(engine.issued(), 0u);
}

TEST_F(AsapWalkFixture, DisabledEngineDoesNothing)
{
    MemoryHierarchy mem;
    AsapEngine engine(registers, mem, AsapConfig::off());
    engine.onWalkStart(base + 0x1000, 0);
    EXPECT_EQ(engine.triggers(), 0u);
    EXPECT_EQ(mem.prefetchesIssued(), 0u);
}

TEST_F(AsapWalkFixture, P1OnlyPrefetchesOneLevel)
{
    MemoryHierarchy mem;
    AsapEngine engine(registers, mem, AsapConfig::p1());
    engine.onWalkStart(base + 0x1000, 0);
    EXPECT_EQ(engine.attempted(), 1u);
    AsapEngine engine2(registers, mem, AsapConfig::p1p2());
    engine2.onWalkStart(base + 24_MiB + 0x3000, 0);
    EXPECT_EQ(engine2.attempted(), 2u);
}

TEST_F(AsapWalkFixture, FaultingWalkStillPrefetches)
{
    // Section 3.7.1: prefetches accelerate fault detection too.
    MemoryHierarchy mem;
    PageWalkCaches pwc;
    AsapEngine engine(registers, mem, AsapConfig::p1p2());
    PageWalker walker(space.pageTable(), mem, pwc, &engine);
    // An untouched page inside the VMA: its PL1 entry is missing.
    const VirtAddr va = base + 3 * 2_MiB + 0x5000;
    const WalkResult result = walker.walk(va, 0);
    EXPECT_TRUE(result.fault);
    EXPECT_GE(engine.attempted(), 1u);
}

/** Property: with random hole fractions, prefetched walks are always
 *  correct (holes only lose acceleration, never correctness). */
class AsapHoleProperty : public ::testing::TestWithParam<double>
{};

TEST_P(AsapHoleProperty, HolesNeverBreakWalks)
{
    BuddyAllocator buddy(1 << 16);
    AsapPtAllocator asap(buddy, {1, 2});
    asap.setHoleFraction(GetParam(), 99);
    AddressSpace space(buddy, asap, AddressSpaceConfig{});
    space.addObserver(&asap);
    const auto id = space.mmap(16_MiB, "heap", true);
    const VirtAddr base = space.vmas().byId(id)->start;
    Rng rng(17);
    for (int i = 0; i < 64; ++i)
        space.touch(base + rng.below(16_MiB));

    RangeRegisterFile registers(16);
    installDescriptors(registers, buildVmaDescriptors(space.vmas(), asap));
    MemoryHierarchy mem;
    PageWalkCaches pwc;
    AsapEngine engine(registers, mem, AsapConfig::p1p2());
    PageWalker walker(space.pageTable(), mem, pwc, &engine);
    Rng rng2(17);
    for (int i = 0; i < 64; ++i) {
        const VirtAddr va = base + rng2.below(16_MiB);
        const WalkResult result = walker.walk(va, i * 100);
        const auto expect = space.translate(alignDown(va, pageSize));
        ASSERT_TRUE(expect.has_value());
        EXPECT_FALSE(result.fault);
        EXPECT_EQ(result.translation.pfn, expect->pfn);
    }
}

INSTANTIATE_TEST_SUITE_P(HoleFractions, AsapHoleProperty,
                         ::testing::Values(0.0, 0.1, 0.3, 0.5, 0.9, 1.0));
