/**
 * @file
 * Unit tests for src/mem: set-associative cache and the hierarchy with
 * prefetch-overlap (MSHR merge) semantics.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/hierarchy.hh"

using namespace asap;

namespace
{

CacheConfig
smallCache(std::uint64_t size = 1024, unsigned ways = 2, Cycles lat = 4)
{
    CacheConfig config;
    config.name = "test";
    config.sizeBytes = size;
    config.ways = ways;
    config.latency = lat;
    return config;
}

} // namespace

TEST(Cache, MissThenHit)
{
    Cache cache(smallCache());
    EXPECT_FALSE(cache.accessAndFill(0x1000));
    EXPECT_TRUE(cache.accessAndFill(0x1000));
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, SameLineDifferentOffsetHits)
{
    Cache cache(smallCache());
    cache.accessAndFill(0x1000);
    EXPECT_TRUE(cache.accessAndFill(0x103f));   // same 64B line
    EXPECT_FALSE(cache.accessAndFill(0x1040));  // next line
}

TEST(Cache, LruEvictionOrder)
{
    // 1KB / 2-way / 64B lines: 8 sets. Lines 0, 8, 16 (in units of
    // lines) map to set 0.
    Cache cache(smallCache(1024, 2));
    const PhysAddr a = 0 << 6, b = 8 << 6, c = 16 << 6;
    cache.accessAndFill(a);
    cache.accessAndFill(b);
    cache.accessAndFill(a);  // hit: a is now MRU
    cache.accessAndFill(c);  // evicts b (LRU)
    EXPECT_TRUE(cache.probe(a));
    EXPECT_FALSE(cache.probe(b));
    EXPECT_TRUE(cache.probe(c));
}

TEST(Cache, ProbeDoesNotPerturbLru)
{
    Cache cache(smallCache(1024, 2));
    const PhysAddr a = 0 << 6, b = 8 << 6, c = 16 << 6;
    cache.accessAndFill(a);
    cache.accessAndFill(b);
    cache.probe(a);          // must NOT refresh a
    cache.accessAndFill(c);  // evicts a (still LRU)
    EXPECT_FALSE(cache.probe(a));
    EXPECT_TRUE(cache.probe(b));
}

TEST(Cache, NonPow2LinesOkWithPow2Sets)
{
    // 20MiB 20-way: 327680 lines, 16384 sets — the paper's LLC.
    CacheConfig config;
    config.sizeBytes = 20_MiB;
    config.ways = 20;
    Cache cache(config);
    cache.accessAndFill(0x123456780);
    EXPECT_TRUE(cache.probe(0x123456780));
}

/** Parameterized associativity sweep: capacity is exactly size/line. */
class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>>
{};

TEST_P(CacheGeometry, FillsToCapacityWithoutSelfEviction)
{
    const auto [size, ways] = GetParam();
    Cache cache(smallCache(size, ways));
    const std::uint64_t lines = size / lineSize;
    // Fill exactly `lines` distinct lines, one per (set, way) slot.
    for (std::uint64_t i = 0; i < lines; ++i)
        cache.accessAndFill(i << lineShift);
    for (std::uint64_t i = 0; i < lines; ++i)
        EXPECT_TRUE(cache.probe(i << lineShift)) << i;
    // One more fill into set 0 must evict something in set 0.
    cache.accessAndFill(lines << lineShift);
    EXPECT_FALSE(cache.probe(0));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheGeometry,
    ::testing::Values(std::make_tuple(std::uint64_t{1024}, 1u),
                      std::make_tuple(std::uint64_t{1024}, 2u),
                      std::make_tuple(std::uint64_t{4096}, 4u),
                      std::make_tuple(std::uint64_t{32768}, 8u),
                      std::make_tuple(std::uint64_t{8192}, 8u)));

TEST(Hierarchy, ColdAccessServedByDram)
{
    MemoryHierarchy mem;
    const AccessResult res = mem.access(0x100000, 0);
    EXPECT_EQ(res.servedBy, MemLevel::Dram);
    EXPECT_EQ(res.latency, mem.config().memLatency);
}

TEST(Hierarchy, FillPropagatesToAllLevels)
{
    MemoryHierarchy mem;
    mem.access(0x100000, 0);
    EXPECT_TRUE(mem.l1d().probe(0x100000));
    EXPECT_TRUE(mem.l2().probe(0x100000));
    EXPECT_TRUE(mem.llc().probe(0x100000));
    const AccessResult res = mem.access(0x100000, 200);
    EXPECT_EQ(res.servedBy, MemLevel::L1D);
    EXPECT_EQ(res.latency, mem.config().l1d.latency);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    HierarchyConfig config;
    config.l1d.sizeBytes = 512;     // 8 lines, 8-way: one set
    config.l1d.ways = 8;
    MemoryHierarchy mem(config);
    mem.access(0, 0);
    for (int i = 1; i <= 8; ++i)
        mem.access(static_cast<PhysAddr>(i) << lineShift, 0);
    // Line 0 evicted from tiny L1 but still in L2.
    const AccessResult res = mem.access(0, 0);
    EXPECT_EQ(res.servedBy, MemLevel::L2);
    EXPECT_EQ(res.latency, config.l2.latency);
}

TEST(Hierarchy, PrefetchFillsAndRecordsInflight)
{
    MemoryHierarchy mem;
    EXPECT_TRUE(mem.prefetch(0x200000, 0));
    EXPECT_EQ(mem.prefetchesIssued(), 1u);
    EXPECT_TRUE(mem.l1d().probe(0x200000));
}

TEST(Hierarchy, PrefetchMergeExposesRemainingLatency)
{
    MemoryHierarchy mem;
    const Cycles memLat = mem.config().memLatency;
    mem.prefetch(0x200000, 0);          // completes at t=191
    // Demand access at t=100: merged, exposed latency = 91.
    const AccessResult res = mem.access(0x200000, 100);
    EXPECT_EQ(res.latency, memLat - 100);
    EXPECT_EQ(mem.prefetchMerges(), 1u);
}

TEST(Hierarchy, PrefetchCompletedBeforeDemandIsL1Hit)
{
    MemoryHierarchy mem;
    mem.prefetch(0x200000, 0);
    const AccessResult res = mem.access(0x200000, 500);
    EXPECT_EQ(res.latency, mem.config().l1d.latency);
}

TEST(Hierarchy, PrefetchMergeNeverFasterThanL1)
{
    MemoryHierarchy mem;
    mem.prefetch(0x200000, 0);
    // Demand at t=189: remaining 2 < L1 latency 4 -> clamped to 4.
    const AccessResult res = mem.access(0x200000, 189);
    EXPECT_EQ(res.latency, mem.config().l1d.latency);
}

TEST(Hierarchy, PrefetchToResidentLineIsDropped)
{
    MemoryHierarchy mem;
    mem.access(0x300000, 0);
    EXPECT_FALSE(mem.prefetch(0x300000, 10));
    EXPECT_EQ(mem.prefetchesIssued(), 0u);
}

TEST(Hierarchy, PrefetchMshrBudgetIsBestEffort)
{
    HierarchyConfig config;
    config.prefetchMshrs = 2;
    MemoryHierarchy mem(config);
    EXPECT_TRUE(mem.prefetch(0x1000000, 0));
    EXPECT_TRUE(mem.prefetch(0x2000000, 0));
    EXPECT_FALSE(mem.prefetch(0x3000000, 0));  // no MSHR available
    EXPECT_EQ(mem.prefetchesDropped(), 1u);
    // After the fills complete, MSHRs free up.
    EXPECT_TRUE(mem.prefetch(0x4000000, 1000));
}

TEST(Hierarchy, DuplicatePrefetchNotReissued)
{
    HierarchyConfig config;
    config.prefetchMshrs = 8;
    MemoryHierarchy mem(config);
    // First prefetch in-flight; the line fills L1 immediately in the
    // functional model, so the duplicate is filtered by the L1 probe.
    EXPECT_TRUE(mem.prefetch(0x5000000, 0));
    EXPECT_FALSE(mem.prefetch(0x5000000, 1));
    EXPECT_EQ(mem.prefetchesIssued(), 1u);
}

TEST(Hierarchy, NoMergePathLeavesCountersAlone)
{
    // The common demand-access case: prefetches in flight, but none
    // targeting the accessed line. The MSHR scan must neither merge
    // nor drop anything, and the in-flight set must stay intact.
    MemoryHierarchy mem;
    EXPECT_TRUE(mem.prefetch(0x1000000, 0));
    EXPECT_TRUE(mem.prefetch(0x2000000, 0));
    EXPECT_EQ(mem.inflightPrefetches(), 2u);
    const AccessResult res = mem.access(0x3000000, 10);
    EXPECT_EQ(res.servedBy, MemLevel::Dram);
    EXPECT_EQ(mem.prefetchMerges(), 0u);
    EXPECT_EQ(mem.prefetchesDropped(), 0u);
    EXPECT_EQ(mem.inflightPrefetches(), 2u);
    // The targeted line, by contrast, is merged and its slot released.
    const AccessResult hit = mem.access(0x1000000, 10);
    EXPECT_EQ(hit.latency, mem.config().memLatency - 10);
    EXPECT_EQ(mem.prefetchMerges(), 1u);
    EXPECT_EQ(mem.inflightPrefetches(), 1u);
}

TEST(Hierarchy, RetirePacksMshrFile)
{
    // Retiring completed fills during a later prefetch frees slots for
    // new prefetches without disturbing still-pending ones.
    HierarchyConfig config;
    config.prefetchMshrs = 2;
    MemoryHierarchy mem(config);
    EXPECT_TRUE(mem.prefetch(0x1000000, 0));     // done at t=191
    EXPECT_TRUE(mem.prefetch(0x2000000, 100));   // done at t=291
    EXPECT_EQ(mem.inflightPrefetches(), 2u);
    // t=200: the first fill completed; its slot must be reclaimed.
    EXPECT_TRUE(mem.prefetch(0x4000000, 200));
    EXPECT_EQ(mem.prefetchesDropped(), 0u);
    EXPECT_EQ(mem.inflightPrefetches(), 2u);
    // The still-pending second prefetch must still merge.
    const AccessResult res = mem.access(0x2000000, 250);
    EXPECT_EQ(res.latency, 291u - 250u);
    EXPECT_EQ(mem.prefetchMerges(), 1u);
}

TEST(Hierarchy, AccessPlainIgnoresInflightPrefetches)
{
    MemoryHierarchy mem;
    mem.prefetch(0x200000, 0);
    // accessPlain sees an L1 hit (prefetch filled it) with plain
    // latency — no merge bookkeeping.
    const AccessResult res = mem.accessPlain(0x200000);
    EXPECT_EQ(res.servedBy, MemLevel::L1D);
    EXPECT_EQ(mem.prefetchMerges(), 0u);
}

TEST(Hierarchy, PaperLatencies)
{
    // Table 5: L1 4, L2 12, LLC 40, memory 191.
    MemoryHierarchy mem;
    EXPECT_EQ(mem.config().l1d.latency, 4u);
    EXPECT_EQ(mem.config().l2.latency, 12u);
    EXPECT_EQ(mem.config().llc.latency, 40u);
    EXPECT_EQ(mem.config().memLatency, 191u);
    EXPECT_EQ(mem.config().l1d.sizeBytes, 32_KiB);
    EXPECT_EQ(mem.config().l2.sizeBytes, 256_KiB);
    EXPECT_EQ(mem.config().llc.sizeBytes, 20_MiB);
    EXPECT_EQ(mem.config().llc.ways, 20u);
}
