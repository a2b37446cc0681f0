/**
 * @file
 * Unit + property tests for the buddy allocator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "os/buddy_allocator.hh"

using namespace asap;

TEST(Buddy, SingleFrameAllocFree)
{
    BuddyAllocator buddy(1024);
    EXPECT_EQ(buddy.totalFrames(), 1024u);
    EXPECT_EQ(buddy.freeFrames(), 1024u);
    const Pfn f = buddy.allocFrame();
    ASSERT_NE(f, invalidPfn);
    EXPECT_EQ(buddy.freeFrames(), 1023u);
    EXPECT_FALSE(buddy.isFree(f));
    buddy.freeFrame(f);
    EXPECT_EQ(buddy.freeFrames(), 1024u);
    EXPECT_TRUE(buddy.isFree(f));
}

TEST(Buddy, BlockAlignment)
{
    BuddyAllocator buddy(1 << 12);
    for (unsigned order = 0; order <= 6; ++order) {
        const Pfn p = buddy.allocBlock(order);
        ASSERT_NE(p, invalidPfn);
        EXPECT_EQ(p & ((1u << order) - 1), 0u) << "order " << order;
    }
}

TEST(Buddy, DistinctAllocations)
{
    BuddyAllocator buddy(256);
    std::set<Pfn> seen;
    for (int i = 0; i < 256; ++i) {
        const Pfn f = buddy.allocFrame();
        ASSERT_NE(f, invalidPfn);
        EXPECT_TRUE(seen.insert(f).second) << "duplicate frame";
    }
    EXPECT_EQ(buddy.allocFrame(), invalidPfn);   // exhausted
}

TEST(Buddy, CoalescingRestoresLargeBlocks)
{
    BuddyAllocator buddy(16, 4);
    std::vector<Pfn> frames;
    for (int i = 0; i < 16; ++i)
        frames.push_back(buddy.allocFrame());
    EXPECT_EQ(buddy.largestFreeOrder(), -1);
    for (const Pfn f : frames)
        buddy.freeFrame(f);
    EXPECT_EQ(buddy.largestFreeOrder(), 4);
    EXPECT_TRUE(buddy.checkConsistency());
}

TEST(Buddy, SplitsLargerBlocksWhenNeeded)
{
    BuddyAllocator buddy(16, 4);
    const Pfn a = buddy.allocBlock(2);   // 4 frames
    const Pfn b = buddy.allocBlock(0);
    ASSERT_NE(a, invalidPfn);
    ASSERT_NE(b, invalidPfn);
    EXPECT_EQ(buddy.freeFrames(), 11u);
    EXPECT_TRUE(buddy.checkConsistency());
}

TEST(Buddy, NonPow2TotalFrames)
{
    BuddyAllocator buddy(1000, 8);
    EXPECT_EQ(buddy.freeFrames(), 1000u);
    EXPECT_TRUE(buddy.checkConsistency());
    std::uint64_t got = 0;
    while (buddy.allocFrame() != invalidPfn)
        ++got;
    EXPECT_EQ(got, 1000u);
}

TEST(Buddy, ReserveContiguousExactRun)
{
    BuddyAllocator buddy(1 << 12);
    const Pfn base = buddy.reserveContiguous(100);   // non-pow2
    ASSERT_NE(base, invalidPfn);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(buddy.isFree(base + i));
    // The tail of the 128-block was returned.
    EXPECT_EQ(buddy.freeFrames(), (1u << 12) - 100);
    EXPECT_TRUE(buddy.checkConsistency());
    buddy.freeRange(base, 100);
    EXPECT_EQ(buddy.freeFrames(), 1u << 12);
    EXPECT_TRUE(buddy.checkConsistency());
}

TEST(Buddy, ReserveContiguousFailsWhenFragmented)
{
    BuddyAllocator buddy(64, 6);
    // Allocate everything, free every other frame: max run = 1.
    std::vector<Pfn> frames;
    for (int i = 0; i < 64; ++i)
        frames.push_back(buddy.allocFrame());
    for (std::size_t i = 0; i < frames.size(); i += 2)
        buddy.freeFrame(frames[i]);
    EXPECT_EQ(buddy.reserveContiguous(4), invalidPfn);
    EXPECT_NE(buddy.reserveContiguous(1), invalidPfn);
    EXPECT_TRUE(buddy.checkConsistency());
}

TEST(Buddy, ReserveRangeSucceedsOnFreeRange)
{
    BuddyAllocator buddy(256);
    EXPECT_TRUE(buddy.reserveRange(10, 20));
    for (int i = 10; i < 30; ++i)
        EXPECT_FALSE(buddy.isFree(i));
    EXPECT_TRUE(buddy.isFree(9));
    EXPECT_TRUE(buddy.isFree(30));
    EXPECT_EQ(buddy.freeFrames(), 236u);
    EXPECT_TRUE(buddy.checkConsistency());
}

TEST(Buddy, ReserveRangeFailsOnOccupiedFrame)
{
    BuddyAllocator buddy(256);
    ASSERT_TRUE(buddy.reserveRange(15, 1));
    EXPECT_FALSE(buddy.reserveRange(10, 10));   // frame 15 busy
    // Failure must not leak state: everything else still free.
    EXPECT_EQ(buddy.freeFrames(), 255u);
    EXPECT_TRUE(buddy.checkConsistency());
}

TEST(Buddy, ReserveRangeOutOfBoundsFails)
{
    BuddyAllocator buddy(100, 6);
    EXPECT_FALSE(buddy.reserveRange(90, 20));
}

TEST(Buddy, ReserveRangeThenAllocDoesNotOverlap)
{
    BuddyAllocator buddy(64, 6);
    ASSERT_TRUE(buddy.reserveRange(8, 16));
    std::set<Pfn> got;
    for (Pfn f = buddy.allocFrame(); f != invalidPfn;
         f = buddy.allocFrame()) {
        EXPECT_TRUE(f < 8 || f >= 24) << "allocated reserved frame " << f;
        got.insert(f);
    }
    EXPECT_EQ(got.size(), 48u);
}

TEST(Buddy, FreeRangeCoalesces)
{
    BuddyAllocator buddy(256);
    ASSERT_TRUE(buddy.reserveRange(0, 256));
    EXPECT_EQ(buddy.freeFrames(), 0u);
    buddy.freeRange(0, 256);
    EXPECT_EQ(buddy.freeFrames(), 256u);
    EXPECT_EQ(buddy.largestFreeOrder(), 8);
    EXPECT_TRUE(buddy.checkConsistency());
}

TEST(Buddy, ChurnKeepsConsistency)
{
    BuddyAllocator buddy(1 << 14);
    Rng rng(99);
    buddy.churn(rng, 5000, 3, 0.5);
    EXPECT_TRUE(buddy.checkConsistency());
    EXPECT_LT(buddy.freeFrames(), std::uint64_t{1} << 14);
    // Still able to allocate.
    EXPECT_NE(buddy.allocFrame(), invalidPfn);
}

TEST(Buddy, ChurnFragmentsFreeSpace)
{
    BuddyAllocator fresh(1 << 14);
    BuddyAllocator churned(1 << 14);
    Rng rng(7);
    churned.churn(rng, 8000, 2, 0.5);
    EXPECT_EQ(fresh.largestFreeOrder(), 14);
    EXPECT_LT(churned.largestFreeOrder(), 15);
    // Fragmentation shows as scattered single-frame allocations:
    // consecutive allocFrame calls return non-adjacent frames more
    // often on the churned allocator.
    auto scatter = [](BuddyAllocator &b) {
        unsigned nonAdjacent = 0;
        Pfn prev = b.allocFrame();
        for (int i = 0; i < 200; ++i) {
            const Pfn f = b.allocFrame();
            if (f != prev + 1)
                ++nonAdjacent;
            prev = f;
        }
        return nonAdjacent;
    };
    EXPECT_GT(scatter(churned), scatter(fresh));
}

TEST(Buddy, ReleaseChurnReturnsHeldBlocks)
{
    BuddyAllocator buddy(1 << 14);
    Rng rng(42);
    buddy.churn(rng, 6000, 3, 0.5);
    const std::uint64_t heldBlocks = buddy.churnHeldBlocks();
    const std::uint64_t freeBefore = buddy.freeFrames();
    ASSERT_GT(heldBlocks, 0u);

    // Partial release: the youngest ~30% of tenants depart.
    const std::uint64_t released = buddy.releaseChurn(0.3);
    EXPECT_GT(released, 0u);
    EXPECT_EQ(buddy.freeFrames(), freeBefore + released);
    EXPECT_LT(buddy.churnHeldBlocks(), heldBlocks);
    EXPECT_TRUE(buddy.checkConsistency());

    // Full release: everything held goes back and coalesces.
    const std::uint64_t rest = buddy.releaseChurn();
    EXPECT_EQ(buddy.churnHeldBlocks(), 0u);
    EXPECT_EQ(buddy.freeFrames(), freeBefore + released + rest);
    EXPECT_EQ(buddy.freeFrames(), std::uint64_t{1} << 14);
    EXPECT_EQ(buddy.largestFreeOrder(), 14);
    EXPECT_TRUE(buddy.checkConsistency());

    // Releasing with nothing held is a no-op.
    EXPECT_EQ(buddy.releaseChurn(), 0u);
}

TEST(Buddy, ReleaseChurnUnderFreeHeavySequences)
{
    // Churn, then a free-heavy interleaving of app allocations, partial
    // churn releases and range frees — the mid-run shape the dyn
    // subsystem produces — with the consistency check after each wave.
    BuddyAllocator buddy(1 << 13, 10);
    Rng rng(7);
    buddy.churn(rng, 4000, 2, 0.6);
    std::vector<Pfn> app;
    for (int wave = 0; wave < 6; ++wave) {
        for (int i = 0; i < 300; ++i) {
            const Pfn f = buddy.allocFrame();
            if (f != invalidPfn)
                app.push_back(f);
        }
        // Free-heavy phase: most of the app pages plus some tenants.
        while (app.size() > 40) {
            buddy.freeFrame(app.back());
            app.pop_back();
        }
        buddy.releaseChurn(0.25);
        ASSERT_TRUE(buddy.checkConsistency()) << "wave " << wave;
    }
    for (const Pfn f : app)
        buddy.freeFrame(f);
    buddy.releaseChurn();
    EXPECT_EQ(buddy.freeFrames(), std::uint64_t{1} << 13);
    EXPECT_TRUE(buddy.checkConsistency());
}

/** Property test: random alloc/free interleavings preserve invariants. */
class BuddyProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(BuddyProperty, RandomOpsPreserveConsistency)
{
    BuddyAllocator buddy(1 << 12, 10);
    Rng rng(GetParam());
    std::vector<std::pair<Pfn, unsigned>> live;
    for (int i = 0; i < 3000; ++i) {
        if (live.empty() || rng.chance(0.55)) {
            const auto order = static_cast<unsigned>(rng.below(5));
            const Pfn p = buddy.allocBlock(order);
            if (p != invalidPfn)
                live.emplace_back(p, order);
        } else {
            const std::size_t idx = rng.below(live.size());
            buddy.freeBlock(live[idx].first, live[idx].second);
            live[idx] = live.back();
            live.pop_back();
        }
    }
    EXPECT_TRUE(buddy.checkConsistency());
    // Free everything: memory must be whole again.
    for (const auto &[p, order] : live)
        buddy.freeBlock(p, order);
    EXPECT_EQ(buddy.freeFrames(), std::uint64_t{1} << 12);
    EXPECT_EQ(buddy.largestFreeOrder(), 10);
    EXPECT_TRUE(buddy.checkConsistency());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

/** Property: reserveRange never hands out frames owned by others. */
class BuddyReserveProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(BuddyReserveProperty, ReservedAndAllocatedDisjoint)
{
    BuddyAllocator buddy(2048, 9);
    Rng rng(GetParam());
    std::set<Pfn> owned;
    for (int i = 0; i < 200; ++i) {
        if (rng.chance(0.5)) {
            const Pfn f = buddy.allocFrame();
            if (f != invalidPfn)
                EXPECT_TRUE(owned.insert(f).second);
        } else {
            const Pfn start = rng.below(2000);
            const std::uint64_t n = 1 + rng.below(16);
            if (buddy.reserveRange(start, n)) {
                for (std::uint64_t k = 0; k < n; ++k)
                    EXPECT_TRUE(owned.insert(start + k).second);
            }
        }
    }
    EXPECT_TRUE(buddy.checkConsistency());
    EXPECT_EQ(buddy.freeFrames(), 2048u - owned.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyReserveProperty,
                         ::testing::Values(11, 22, 33, 44));

TEST(BuddyDeathTest, DoubleFreeNamesTheFirstFreeFrame)
{
    BuddyAllocator buddy(1024);
    const Pfn block = buddy.allocBlock(7);      // spans two bitmap words
    ASSERT_NE(block, invalidPfn);
    buddy.freeBlock(block, 7);
    EXPECT_DEATH(buddy.freeBlock(block, 7),
                 strprintf("frame %#lx double-free", block));

    const Pfn again = buddy.allocBlock(7);
    buddy.freeFrame(again + 70);
    EXPECT_DEATH(buddy.freeBlock(again + 64, 6),
                 strprintf("frame %#lx double-free", again + 70));
}

namespace
{

/**
 * The free lists BuddyAllocator kept before its intrusive per-order
 * lists: a LIFO stack per order with lazy deletion (stale entries are
 * skipped when popped), an authoritative set per order, and a byte per
 * frame. Kept verbatim in behaviour as the reference the lists must
 * reproduce op for op.
 */
class StackBuddy
{
  public:
    StackBuddy(std::uint64_t total, unsigned maxOrder)
        : total_(total), maxOrder_(maxOrder), stacks_(maxOrder + 1),
          sets_(maxOrder + 1), free_(total, 0)
    {
        for (Pfn pfn = 0; pfn < total_;) {
            unsigned order = maxOrder_;
            while (order > 0 && ((pfn & (size(order) - 1)) != 0 ||
                                 pfn + size(order) > total_))
                --order;
            mark(pfn, size(order), true);
            push(pfn, order);
            pfn += size(order);
        }
    }

    Pfn
    allocBlock(unsigned order)
    {
        unsigned from = order;
        while (from <= maxOrder_ && sets_[from].empty())
            ++from;
        if (from > maxOrder_)
            return invalidPfn;
        const Pfn pfn = pop(from);
        while (from > order) {
            --from;
            push(pfn + size(from), from);
        }
        mark(pfn, size(order), false);
        return pfn;
    }

    void
    freeBlock(Pfn pfn, unsigned order)
    {
        mark(pfn, size(order), true);
        while (order < maxOrder_) {
            const Pfn buddy = pfn ^ size(order);
            if (buddy + size(order) > total_ || !sets_[order].count(buddy))
                break;
            sets_[order].erase(buddy);
            pfn = std::min(pfn, buddy);
            ++order;
        }
        push(pfn, order);
    }

    Pfn
    reserveContiguous(std::uint64_t n)
    {
        unsigned order = 0;
        while (size(order) < n)
            ++order;
        if (order > maxOrder_)
            return invalidPfn;
        const Pfn pfn = allocBlock(order);
        if (pfn != invalidPfn && size(order) > n)
            freeRange(pfn + n, size(order) - n);
        return pfn;
    }

    bool
    reserveRange(Pfn start, std::uint64_t n)
    {
        if (start + n > total_)
            return false;
        for (std::uint64_t i = 0; i < n; ++i) {
            if (!free_[start + i])
                return false;
        }
        for (Pfn cursor = start; cursor < start + n;) {
            unsigned order = 0;
            while (!sets_[order].count(cursor & ~(size(order) - 1)))
                ++order;
            const Pfn block = cursor & ~(size(order) - 1);
            sets_[order].erase(block);
            carve(block, order, start, start + n);
            cursor = block + size(order);
        }
        mark(start, n, false);
        return true;
    }

    void
    freeRange(Pfn pfn, std::uint64_t n)
    {
        while (n > 0) {
            unsigned order = maxOrder_;
            while (order > 0 &&
                   ((pfn & (size(order) - 1)) != 0 || size(order) > n))
                --order;
            freeBlock(pfn, order);
            pfn += size(order);
            n -= size(order);
        }
    }

    void
    churn(Rng &rng, std::uint64_t ops, unsigned maxChurnOrder, double hold)
    {
        std::vector<std::pair<Pfn, unsigned>> transient;
        for (std::uint64_t i = 0; i < ops; ++i) {
            const auto order =
                static_cast<unsigned>(rng.below(maxChurnOrder + 1));
            const Pfn pfn = allocBlock(order);
            if (pfn == invalidPfn)
                continue;
            (rng.chance(hold) ? held_ : transient).emplace_back(pfn, order);
            if (!transient.empty() && rng.chance(0.5)) {
                const std::size_t idx = rng.below(transient.size());
                freeBlock(transient[idx].first, transient[idx].second);
                transient[idx] = transient.back();
                transient.pop_back();
            }
        }
        for (const auto &[pfn, order] : transient)
            freeBlock(pfn, order);
    }

    std::uint64_t
    releaseChurn(double fraction)
    {
        const auto release = static_cast<std::size_t>(std::min<double>(
            static_cast<double>(held_.size()),
            std::ceil(fraction * static_cast<double>(held_.size()))));
        std::uint64_t frames = 0;
        for (std::size_t i = 0; i < release; ++i) {
            freeBlock(held_.back().first, held_.back().second);
            frames += size(held_.back().second);
            held_.pop_back();
        }
        return frames;
    }

    std::uint64_t freeFrames() const { return freeFrames_; }

    int
    largestFreeOrder() const
    {
        for (int order = static_cast<int>(maxOrder_); order >= 0; --order) {
            if (!sets_[static_cast<unsigned>(order)].empty())
                return order;
        }
        return -1;
    }

    std::uint64_t
    fragmentationPermille(unsigned order) const
    {
        if (freeFrames_ == 0)
            return 0;
        std::uint64_t usable = 0;
        for (unsigned o = order; o <= maxOrder_; ++o)
            usable += sets_[o].size() << o;
        return 1000 - 1000 * usable / freeFrames_;
    }

  private:
    static std::uint64_t size(unsigned order)
    {
        return std::uint64_t{1} << order;
    }

    void
    push(Pfn pfn, unsigned order)
    {
        sets_[order].insert(pfn);
        stacks_[order].push_back(pfn);
    }

    Pfn
    pop(unsigned order)
    {
        for (;;) {
            const Pfn pfn = stacks_[order].back();
            stacks_[order].pop_back();
            if (sets_[order].erase(pfn))
                return pfn;
        }
    }

    void
    mark(Pfn start, std::uint64_t n, bool free)
    {
        std::fill_n(free_.begin() + static_cast<std::ptrdiff_t>(start), n,
                    free);
        freeFrames_ = free ? freeFrames_ + n : freeFrames_ - n;
    }

    void
    carve(Pfn block, unsigned order, Pfn lo, Pfn hi)
    {
        const Pfn end = block + size(order);
        if (end <= lo || block >= hi) {
            push(block, order);
        } else if (block < lo || end > hi) {
            carve(block, order - 1, lo, hi);
            carve(block + size(order - 1), order - 1, lo, hi);
        }
    }

    std::uint64_t total_;
    unsigned maxOrder_;
    std::uint64_t freeFrames_ = 0;
    std::vector<std::vector<Pfn>> stacks_;
    std::vector<std::unordered_set<Pfn>> sets_;
    std::vector<std::uint8_t> free_;
    std::vector<std::pair<Pfn, unsigned>> held_;
};

/** Drive @p ops seeded random operations through both allocators. */
void
expectSameAsStackReference(std::uint64_t frames, unsigned maxOrder,
                           std::uint64_t seed, unsigned ops)
{
    BuddyAllocator lists(frames, maxOrder);
    StackBuddy stack(frames, maxOrder);
    Rng rng(seed);
    std::vector<std::pair<Pfn, unsigned>> blocks;
    std::vector<std::pair<Pfn, std::uint64_t>> ranges;
    const unsigned maxAllocOrder = std::min(maxOrder, 6u);

    for (unsigned op = 0; op < ops; ++op) {
        SCOPED_TRACE(testing::Message() << "op " << op);
        const std::uint64_t kind = rng.below(9);
        if (kind <= 1) {
            const auto order =
                static_cast<unsigned>(rng.below(maxAllocOrder + 1));
            const Pfn pfn = lists.allocBlock(order);
            ASSERT_EQ(pfn, stack.allocBlock(order));
            if (pfn != invalidPfn)
                blocks.emplace_back(pfn, order);
        } else if (kind == 2 && !blocks.empty()) {
            const std::size_t idx = rng.below(blocks.size());
            lists.freeBlock(blocks[idx].first, blocks[idx].second);
            stack.freeBlock(blocks[idx].first, blocks[idx].second);
            blocks[idx] = blocks.back();
            blocks.pop_back();
        } else if (kind == 3) {
            const std::uint64_t n = 1 + rng.below(std::min<std::uint64_t>(
                                            frames / 8, 300));
            const Pfn pfn = lists.reserveContiguous(n);
            ASSERT_EQ(pfn, stack.reserveContiguous(n));
            if (pfn != invalidPfn)
                ranges.emplace_back(pfn, n);
        } else if (kind == 4) {
            // A hit: the free run starting at the first free frame at
            // or after a random one, capped at a random length.
            Pfn start = rng.below(frames);
            while (start < frames && !lists.isFree(start))
                ++start;
            const std::uint64_t cap = 1 + rng.below(64);
            std::uint64_t n = 0;
            while (n < cap && start + n < frames && lists.isFree(start + n))
                ++n;
            if (n == 0)
                continue;
            ASSERT_TRUE(lists.reserveRange(start, n));
            ASSERT_TRUE(stack.reserveRange(start, n));
            ranges.emplace_back(start, n);
        } else if (kind == 5) {
            // Usually a miss: a random run, often over allocated frames
            // or past the end of memory.
            const Pfn start = rng.below(frames);
            const std::uint64_t n = 1 + rng.below(64);
            const bool hit = lists.reserveRange(start, n);
            ASSERT_EQ(hit, stack.reserveRange(start, n));
            if (hit)
                ranges.emplace_back(start, n);
        } else if (kind == 6 && !ranges.empty()) {
            const std::size_t idx = rng.below(ranges.size());
            lists.freeRange(ranges[idx].first, ranges[idx].second);
            stack.freeRange(ranges[idx].first, ranges[idx].second);
            ranges[idx] = ranges.back();
            ranges.pop_back();
        } else if (kind == 7) {
            const std::uint64_t churnOps = 1 + rng.below(64);
            const auto churnOrder = static_cast<unsigned>(
                rng.below(std::min(maxOrder, 4u) + 1));
            const double hold = 0.25 * static_cast<double>(rng.below(4));
            Rng listsRng(seed + op);
            Rng stackRng(seed + op);
            lists.churn(listsRng, churnOps, churnOrder, hold);
            stack.churn(stackRng, churnOps, churnOrder, hold);
        } else if (kind == 8) {
            const double fraction = 0.25 * static_cast<double>(rng.below(5));
            ASSERT_EQ(lists.releaseChurn(fraction),
                      stack.releaseChurn(fraction));
        }
        ASSERT_EQ(lists.freeFrames(), stack.freeFrames());
        ASSERT_EQ(lists.largestFreeOrder(), stack.largestFreeOrder());
        for (unsigned order = 0; order <= 9; ++order) {
            ASSERT_EQ(lists.fragmentationPermille(order),
                      stack.fragmentationPermille(order))
                << "order " << order;
        }
        ASSERT_TRUE(lists.checkConsistency());
    }
}

} // namespace

TEST(Buddy, FreeListOrderMatchesStackReference)
{
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        expectSameAsStackReference(1000, 8, seed, 3000);
        expectSameAsStackReference(std::uint64_t{1} << 16,
                                   BuddyAllocator::defaultMaxOrder, seed,
                                   1500);
        expectSameAsStackReference(3 * (std::uint64_t{1} << 15),
                                   BuddyAllocator::defaultMaxOrder, seed,
                                   1500);
    }
}
