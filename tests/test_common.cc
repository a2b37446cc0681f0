/**
 * @file
 * Unit tests for src/common: address math, RNG/Zipfian, statistics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/logging.hh"
#include "common/mem_level.hh"
#include "common/rng.hh"
#include "common/set_assoc.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "common/zero_pages.hh"

using namespace asap;

TEST(Types, LevelShiftMatchesX86)
{
    EXPECT_EQ(levelShift(1), 12u);   // 4KB
    EXPECT_EQ(levelShift(2), 21u);   // 2MB
    EXPECT_EQ(levelShift(3), 30u);   // 1GB
    EXPECT_EQ(levelShift(4), 39u);   // 512GB
    EXPECT_EQ(levelShift(5), 48u);
}

TEST(Types, LevelSpan)
{
    EXPECT_EQ(levelSpan(1), 4096u);
    EXPECT_EQ(levelSpan(2), 2u * 1024 * 1024);
    EXPECT_EQ(levelSpan(3), 1024ull * 1024 * 1024);
}

TEST(Types, NodeSpanIsParentEntrySpan)
{
    for (unsigned level = 1; level <= 4; ++level)
        EXPECT_EQ(nodeSpan(level), levelSpan(level + 1)) << level;
}

TEST(Types, LevelIndexExtractsNineBitFields)
{
    // Construct a VA with distinct indices at each level.
    const VirtAddr va = (VirtAddr{5} << 39) | (VirtAddr{17} << 30) |
                        (VirtAddr{511} << 21) | (VirtAddr{1} << 12) | 0xabc;
    EXPECT_EQ(levelIndex(va, 4), 5u);
    EXPECT_EQ(levelIndex(va, 3), 17u);
    EXPECT_EQ(levelIndex(va, 2), 511u);
    EXPECT_EQ(levelIndex(va, 1), 1u);
}

TEST(Types, AlignHelpers)
{
    EXPECT_EQ(alignDown(0x1fffu, 0x1000), 0x1000u);
    EXPECT_EQ(alignUp(0x1001u, 0x1000), 0x2000u);
    EXPECT_EQ(alignUp(0x1000u, 0x1000), 0x1000u);
    EXPECT_EQ(alignDown(0u, 64), 0u);
}

TEST(Types, Pow2AndLog2)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(4096));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(24));
    EXPECT_EQ(log2Floor(4096), 12u);
    EXPECT_EQ(log2Floor(1), 0u);
}

TEST(Types, ByteLiterals)
{
    EXPECT_EQ(4_KiB, 4096u);
    EXPECT_EQ(2_MiB, 2097152u);
    EXPECT_EQ(1_GiB, 1073741824u);
}

TEST(Types, LineOf)
{
    EXPECT_EQ(lineOf(0x1234567), 0x1234540u);
    EXPECT_EQ(lineOf(0x40), 0x40u);
}

TEST(Types, CeilDiv)
{
    EXPECT_EQ(ceilDiv(10, 3), 4u);
    EXPECT_EQ(ceilDiv(9, 3), 3u);
    EXPECT_EQ(ceilDiv(1, 512), 1u);
}

TEST(Logging, Strprintf)
{
    EXPECT_EQ(strprintf("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(strprintf("%#lx", 0xffUL), "0xff");
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool anyDiff = false;
    for (int i = 0; i < 10; ++i)
        anyDiff |= (a.next() != b.next());
    EXPECT_TRUE(anyDiff);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BetweenInclusive)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.between(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 3u);     // all three values appear
}

TEST(Rng, RealInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 10000; ++i) {
        const double r = rng.real();
        EXPECT_GE(r, 0.0);
        EXPECT_LT(r, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, Mix64IsDeterministicAndMixing)
{
    EXPECT_EQ(mix64(1), mix64(1));
    EXPECT_NE(mix64(1), mix64(2));
}

TEST(Zipf, RankZeroIsMostPopular)
{
    Rng rng(1);
    ZipfianGenerator zipf(1000, 0.99);
    std::vector<int> counts(1000, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[zipf.next(rng)];
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[1], counts[100]);
}

TEST(Zipf, StaysInRange)
{
    Rng rng(2);
    ZipfianGenerator zipf(37, 0.8);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(zipf.next(rng), 37u);
}

TEST(Zipf, HigherThetaMoreSkewed)
{
    Rng rng1(3), rng2(3);
    ZipfianGenerator flat(10000, 0.5), skew(10000, 0.99);
    int flatTop = 0, skewTop = 0;
    for (int i = 0; i < 50000; ++i) {
        if (flat.next(rng1) < 10)
            ++flatTop;
        if (skew.next(rng2) < 10)
            ++skewTop;
    }
    EXPECT_GT(skewTop, flatTop);
}

TEST(Zipf, BlockScrambleKeepsNeighboursTogether)
{
    Rng rng(4);
    BlockScrambledZipfian zipf(100000, 0.99, 32);
    // Ranks 0..31 are one block: their scrambled positions must be 32
    // consecutive items. Draw many samples and check that the most
    // popular items cluster in few 32-aligned blocks.
    std::set<std::uint64_t> blocks;
    for (int i = 0; i < 2000; ++i)
        blocks.insert(zipf.next(rng) / 32);
    // 2000 zipf draws over 100k items should hit far fewer than 2000
    // distinct blocks (hot ranks share blocks).
    EXPECT_LT(blocks.size(), 1200u);
}

TEST(Zipf, BlockScrambleStaysInRange)
{
    Rng rng(5);
    BlockScrambledZipfian zipf(1000, 0.9, 32);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(zipf.next(rng), 1000u);
}

TEST(SampleStat, Accumulates)
{
    SampleStat stat;
    stat.sample(10);
    stat.sample(20);
    stat.sample(30);
    EXPECT_EQ(stat.count(), 3u);
    EXPECT_EQ(stat.sum(), 60u);
    EXPECT_EQ(stat.min(), 10u);
    EXPECT_EQ(stat.max(), 30u);
    EXPECT_DOUBLE_EQ(stat.mean(), 20.0);
}

TEST(SampleStat, EmptyIsZero)
{
    SampleStat stat;
    EXPECT_EQ(stat.count(), 0u);
    EXPECT_EQ(stat.min(), 0u);
    EXPECT_DOUBLE_EQ(stat.mean(), 0.0);
}

namespace
{

void
expectSampleStatEq(const SampleStat &got, const SampleStat &want)
{
    EXPECT_EQ(got.count(), want.count());
    EXPECT_EQ(got.sum(), want.sum());
    EXPECT_EQ(got.min(), want.min());
    EXPECT_EQ(got.max(), want.max());
    EXPECT_EQ(got.sumSquaresHi(), want.sumSquaresHi());
    EXPECT_EQ(got.sumSquaresLo(), want.sumSquaresLo());
}

} // namespace

/**
 * SampleStat::merge must equal serial accumulation bit-for-bit for
 * ANY partition of the samples — the property mc's per-tenant
 * aggregate relies on. The second moment is exact 128-bit integer
 * arithmetic, so this holds with no tolerance.
 */
TEST(SampleStatMerge, MatchesSerialForUnequalPartitions)
{
    // Values with spread (squares overflow 32 bits) and duplicates.
    std::vector<std::uint64_t> samples;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 1000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        samples.push_back(x % 5'000'000);
    }

    SampleStat serial;
    for (std::uint64_t v : samples)
        serial.sample(v);

    for (std::size_t shards : {2u, 3u, 7u}) {
        SCOPED_TRACE(shards);
        // Deliberately unequal slices: shard k gets [k*n/N, (k+1)*n/N).
        std::vector<SampleStat> parts(shards);
        for (std::size_t k = 0; k < shards; ++k) {
            const std::size_t begin = samples.size() * k / shards;
            const std::size_t end = samples.size() * (k + 1) / shards;
            for (std::size_t i = begin; i < end; ++i)
                parts[k].sample(samples[i]);
        }

        SampleStat merged;
        for (const SampleStat &part : parts)
            merged.merge(part);
        expectSampleStatEq(merged, serial);
        EXPECT_DOUBLE_EQ(merged.variance(), serial.variance());

        // Associativity: ((a+b)+c) == (a+(b+c)) for three-way splits.
        if (shards == 3) {
            SampleStat left = parts[0];
            left.merge(parts[1]);
            left.merge(parts[2]);
            SampleStat right = parts[1];
            right.merge(parts[2]);
            SampleStat first = parts[0];
            first.merge(right);
            expectSampleStatEq(first, left);
        }
    }
}

/** The second moment survives the journal's u64-halves round trip. */
TEST(SampleStatMerge, RestoreRoundTripsSecondMoment)
{
    SampleStat stat;
    // Large samples push sumSquares past 64 bits.
    for (int i = 0; i < 10; ++i)
        stat.sample((std::uint64_t{1} << 33) + i);
    EXPECT_GT(stat.sumSquaresHi(), 0u);

    SampleStat restored;
    restored.restore(stat.count(), stat.sum(), stat.min(), stat.max(),
                     stat.sumSquaresHi(), stat.sumSquaresLo());
    expectSampleStatEq(restored, stat);
    EXPECT_DOUBLE_EQ(restored.variance(), stat.variance());
}

TEST(LevelDistribution, FractionsSumToOne)
{
    LevelDistribution dist;
    dist.record(MemLevel::L1D);
    dist.record(MemLevel::L1D);
    dist.record(MemLevel::Dram);
    EXPECT_EQ(dist.total(), 3u);
    EXPECT_DOUBLE_EQ(dist.fraction(MemLevel::L1D), 2.0 / 3.0);
    double sum = 0;
    for (std::size_t i = 0; i < numMemLevels; ++i)
        sum += dist.fraction(static_cast<MemLevel>(i));
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(LevelDistribution, Names)
{
    EXPECT_STREQ(memLevelName(MemLevel::Pwc), "PWC");
    EXPECT_STREQ(memLevelName(MemLevel::L1D), "L1");
    EXPECT_STREQ(memLevelName(MemLevel::Dram), "Mem");
}

/** Parameterized: vpnOf/levelIndex round-trip over page numbers. */
class VpnRoundTrip : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(VpnRoundTrip, PageNumberConsistency)
{
    const Vpn vpn = GetParam();
    const VirtAddr va = (vpn << pageShift) | 0x123;
    EXPECT_EQ(vpnOf(va), vpn);
    // The concatenated per-level indices reconstruct the VPN.
    const Vpn rebuilt =
        (static_cast<Vpn>(levelIndex(va, 4)) << 27) |
        (static_cast<Vpn>(levelIndex(va, 3)) << 18) |
        (static_cast<Vpn>(levelIndex(va, 2)) << 9) |
        levelIndex(va, 1);
    EXPECT_EQ(rebuilt, vpn & ((Vpn{1} << 36) - 1));
}

INSTANTIATE_TEST_SUITE_P(Sweep, VpnRoundTrip,
                         ::testing::Values(0, 1, 511, 512, 0x12345,
                                           0xfffffffful, 0x7ffffffffull));

/** Parameterized: Zipf distribution is monotonically decreasing in rank
 *  (statistically) for several thetas. */
class ZipfMonotone : public ::testing::TestWithParam<double>
{};

TEST_P(ZipfMonotone, HeadOutweighsTail)
{
    Rng rng(42);
    ZipfianGenerator zipf(10000, GetParam());
    std::uint64_t head = 0, tail = 0;
    for (int i = 0; i < 50000; ++i) {
        const auto r = zipf.next(rng);
        if (r < 100)
            ++head;
        else if (r >= 9900)
            ++tail;
    }
    EXPECT_GT(head, tail * 2);
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZipfMonotone,
                         ::testing::Values(0.5, 0.7, 0.85, 0.99));

TEST(ZeroPageArray, StartsZeroHoldsWritesAndMoves)
{
    ZeroPageArray<std::uint64_t> array(1 << 20);
    ASSERT_EQ(array.size(), std::size_t{1} << 20);
    EXPECT_EQ(array[0], 0u);
    EXPECT_EQ(array[(1 << 20) - 1], 0u);
    array[12345] = 7;
    ZeroPageArray<std::uint64_t> moved(std::move(array));
    EXPECT_EQ(moved[12345], 7u);
    EXPECT_EQ(moved[12346], 0u);
    EXPECT_EQ(array.size(), 0u);
    EXPECT_EQ(ZeroPageArray<std::uint8_t>(0).size(), 0u);

    ZeroPageArray<std::uint64_t> populated(1 << 12, /*populate=*/true);
    EXPECT_EQ(populated[0], 0u);
    EXPECT_EQ(populated[(1 << 12) - 1], 0u);
}

#ifndef NDEBUG
TEST(ZeroPageArrayDeathTest, DebugBuildsCheckTheIndex)
{
    ZeroPageArray<std::uint8_t> array(16);
    EXPECT_DEATH(array[16] = 1, "index 16 out of 16");
}

TEST(SetAssocDeathTest, DebugBuildsCheckTheSet)
{
    SetAssoc<> array;
    array.init(4, 2);
    EXPECT_DEATH(array.find(4, 1), "index 8 out of 8");
}
#endif
