#include "os/buddy_allocator.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace asap
{

namespace
{

/** The bits of frames [pfn, end) inside pfn's 64-frame bitmap word. */
std::uint64_t
wordMask(Pfn pfn, Pfn end)
{
    const unsigned bit = pfn % 64;
    const std::uint64_t bits = std::min<std::uint64_t>(64 - bit, end - pfn);
    return (bits == 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << bits) - 1) << bit;
}

} // namespace

BuddyAllocator::BuddyAllocator(std::uint64_t totalFrames, unsigned maxOrder)
    : totalFrames_(totalFrames), maxOrder_(maxOrder),
      freeFrames_(totalFrames), listHead_(maxOrder + 1, noBlock),
      listCount_(maxOrder + 1, 0), links_(totalFrames),
      freeHead_(totalFrames), allocated_(ceilDiv(totalFrames, 64))
{
    fatal_if(totalFrames == 0, "empty physical memory");
    fatal_if(totalFrames >= noBlock,
             "%lu frames overflow the free lists' 32-bit links",
             totalFrames);
    fatal_if(maxOrder >= 40, "absurd max order %u", maxOrder);

    // Cover [0, totalFrames) with maximal aligned blocks.
    Pfn pfn = 0;
    while (pfn < totalFrames_) {
        unsigned order = maxOrder_;
        while (order > 0 &&
               ((pfn & ((std::uint64_t{1} << order) - 1)) != 0 ||
                pfn + (std::uint64_t{1} << order) > totalFrames_)) {
            --order;
        }
        pushFree(pfn, order);
        pfn += std::uint64_t{1} << order;
    }
}

void
BuddyAllocator::pushFree(Pfn pfn, unsigned order)
{
    const std::uint32_t head = listHead_[order];
    links_[pfn] = {head, noBlock};
    if (head != noBlock)
        links_[head].prev = static_cast<std::uint32_t>(pfn);
    listHead_[order] = static_cast<std::uint32_t>(pfn);
    ++listCount_[order];
    freeHead_[pfn] = static_cast<std::uint8_t>(order + 1);
}

void
BuddyAllocator::eraseFree(Pfn pfn, unsigned order)
{
    const Links links = links_[pfn];
    if (links.prev == noBlock)
        listHead_[order] = links.next;
    else
        links_[links.prev].next = links.next;
    if (links.next != noBlock)
        links_[links.next].prev = links.prev;
    --listCount_[order];
    freeHead_[pfn] = 0;
}

Pfn
BuddyAllocator::popFree(unsigned order)
{
    const std::uint32_t head = listHead_[order];
    if (head == noBlock)
        return invalidPfn;
    eraseFree(head, order);
    return head;
}

void
BuddyAllocator::markFrames(Pfn start, std::uint64_t count, bool free)
{
    panic_if(start + count > totalFrames_,
             "frame range [%#lx,+%lu) out of bounds", start, count);
    const Pfn end = start + count;
    for (Pfn pfn = start; pfn < end; pfn = (pfn | 63) + 1) {
        const std::uint64_t mask = wordMask(pfn, end);
        std::uint64_t &word = allocated_[pfn / 64];
        // Freeing needs every bit set, allocating every bit clear.
        const std::uint64_t wrong = (free ? ~word : word) & mask;
        panic_if(wrong != 0, "frame %#lx double-%s",
                 (pfn & ~Pfn{63}) + __builtin_ctzll(wrong),
                 free ? "free" : "alloc");
        word ^= mask;
    }
    if (free)
        freeFrames_ += count;
    else
        freeFrames_ -= count;
}

bool
BuddyAllocator::anyAllocated(Pfn start, std::uint64_t count) const
{
    const Pfn end = start + count;
    for (Pfn pfn = start; pfn < end; pfn = (pfn | 63) + 1) {
        if (allocated_[pfn / 64] & wordMask(pfn, end))
            return true;
    }
    return false;
}

Pfn
BuddyAllocator::allocBlock(unsigned order)
{
    panic_if(order > maxOrder_, "allocBlock order %u > max %u", order,
             maxOrder_);
    unsigned from = order;
    while (from <= maxOrder_ && listCount_[from] == 0)
        ++from;
    if (from > maxOrder_)
        return invalidPfn;

    const Pfn pfn = popFree(from);
    // Split down, returning upper halves to the free lists.
    while (from > order) {
        --from;
        pushFree(pfn + (std::uint64_t{1} << from), from);
    }
    markFrames(pfn, std::uint64_t{1} << order, false);
    return pfn;
}

void
BuddyAllocator::freeBlock(Pfn pfn, unsigned order)
{
    panic_if(order > maxOrder_, "freeBlock order %u", order);
    panic_if((pfn & ((std::uint64_t{1} << order) - 1)) != 0,
             "freeBlock misaligned: %#lx order %u", pfn, order);
    markFrames(pfn, std::uint64_t{1} << order, true);
    // Coalesce with free buddies as far as possible.
    while (order < maxOrder_) {
        const Pfn buddy = pfn ^ (std::uint64_t{1} << order);
        if (buddy + (std::uint64_t{1} << order) > totalFrames_ ||
            !isFreeBlock(buddy, order)) {
            break;
        }
        eraseFree(buddy, order);
        pfn = std::min(pfn, buddy);
        ++order;
    }
    pushFree(pfn, order);
}

Pfn
BuddyAllocator::reserveContiguous(std::uint64_t nFrames)
{
    panic_if(nFrames == 0, "reserveContiguous(0)");
    unsigned order = 0;
    while ((std::uint64_t{1} << order) < nFrames)
        ++order;
    if (order > maxOrder_)
        return invalidPfn;
    const Pfn pfn = allocBlock(order);
    if (pfn == invalidPfn)
        return invalidPfn;
    // Return the tail beyond nFrames to the allocator.
    const std::uint64_t blockFrames = std::uint64_t{1} << order;
    if (blockFrames > nFrames)
        freeRange(pfn + nFrames, blockFrames - nFrames);
    return pfn;
}

int
BuddyAllocator::findFreeBlockContaining(Pfn pfn, Pfn &blockStart) const
{
    for (unsigned order = 0; order <= maxOrder_; ++order) {
        const Pfn start = pfn & ~((std::uint64_t{1} << order) - 1);
        if (isFreeBlock(start, order)) {
            blockStart = start;
            return static_cast<int>(order);
        }
    }
    return -1;
}

void
BuddyAllocator::carve(Pfn blockStart, unsigned order, Pfn lo, Pfn hi)
{
    const Pfn blockEnd = blockStart + (std::uint64_t{1} << order);
    if (blockEnd <= lo || blockStart >= hi) {
        // Entirely outside the reserved range: stays free.
        pushFree(blockStart, order);
        return;
    }
    if (blockStart >= lo && blockEnd <= hi) {
        // Entirely inside: consumed by the reservation.
        return;
    }
    panic_if(order == 0, "carve: order-0 block must be inside or outside");
    const unsigned half = order - 1;
    carve(blockStart, half, lo, hi);
    carve(blockStart + (std::uint64_t{1} << half), half, lo, hi);
}

bool
BuddyAllocator::reserveRange(Pfn start, std::uint64_t nFrames)
{
    panic_if(nFrames == 0, "reserveRange(0)");
    if (start + nFrames > totalFrames_ || anyAllocated(start, nFrames))
        return false;
    // Remove every free block overlapping the range, re-inserting the
    // parts that stick out.
    Pfn cursor = start;
    while (cursor < start + nFrames) {
        Pfn blockStart = 0;
        const int order = findFreeBlockContaining(cursor, blockStart);
        panic_if(order < 0, "free frame %#lx not in any free block",
                 cursor);
        eraseFree(blockStart, static_cast<unsigned>(order));
        carve(blockStart, static_cast<unsigned>(order), start,
              start + nFrames);
        cursor = blockStart + (std::uint64_t{1} << order);
    }
    markFrames(start, nFrames, false);
    return true;
}

void
BuddyAllocator::freeRange(Pfn start, std::uint64_t nFrames)
{
    // Decompose the run into maximal aligned blocks and free each.
    Pfn pfn = start;
    std::uint64_t remaining = nFrames;
    while (remaining > 0) {
        unsigned order = maxOrder_;
        while (order > 0 &&
               ((pfn & ((std::uint64_t{1} << order) - 1)) != 0 ||
                (std::uint64_t{1} << order) > remaining)) {
            --order;
        }
        freeBlock(pfn, order);
        pfn += std::uint64_t{1} << order;
        remaining -= std::uint64_t{1} << order;
    }
}

bool
BuddyAllocator::isFree(Pfn pfn) const
{
    panic_if(pfn >= totalFrames_, "isFree out of range");
    return !anyAllocated(pfn, 1);
}

void
BuddyAllocator::churn(Rng &rng, std::uint64_t ops, unsigned maxChurnOrder,
                      double holdFraction)
{
    std::vector<std::pair<Pfn, unsigned>> transient;
    for (std::uint64_t i = 0; i < ops; ++i) {
        const auto order =
            static_cast<unsigned>(rng.below(maxChurnOrder + 1));
        const Pfn pfn = allocBlock(order);
        if (pfn == invalidPfn)
            continue;
        if (rng.chance(holdFraction))
            churnHeld_.emplace_back(pfn, order);
        else
            transient.emplace_back(pfn, order);
        // Occasionally release a random transient block to create holes.
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
BuddyAllocator::releaseChurn(double fraction)
{
    panic_if(fraction < 0.0 || fraction > 1.0,
             "releaseChurn fraction %f out of [0, 1]", fraction);
    const auto release = static_cast<std::size_t>(
        std::min<double>(static_cast<double>(churnHeld_.size()),
                         std::ceil(fraction *
                                   static_cast<double>(churnHeld_.size()))));
    std::uint64_t frames = 0;
    for (std::size_t i = 0; i < release; ++i) {
        const auto [pfn, order] = churnHeld_.back();
        churnHeld_.pop_back();
        freeBlock(pfn, order);
        frames += std::uint64_t{1} << order;
    }
    return frames;
}

int
BuddyAllocator::largestFreeOrder() const
{
    for (int order = static_cast<int>(maxOrder_); order >= 0; --order) {
        if (listCount_[static_cast<unsigned>(order)] != 0)
            return order;
    }
    return -1;
}

std::uint64_t
BuddyAllocator::fragmentationPermille(unsigned order) const
{
    if (freeFrames_ == 0)
        return 0;
    std::uint64_t usable = 0;
    for (unsigned o = order; o <= maxOrder_; ++o)
        usable += listCount_[o] << o;
    return 1000 - 1000 * usable / freeFrames_;
}

bool
BuddyAllocator::checkConsistency() const
{
    std::uint64_t allocatedFrames = 0;
    for (std::uint64_t word = 0; word < allocated_.size(); ++word)
        allocatedFrames += __builtin_popcountll(allocated_[word]);
    if (totalFrames_ - allocatedFrames != freeFrames_)
        return false;

    // Every list is linked both ways, holds count blocks, and each
    // block is marked as a head and wholly free.
    std::uint64_t listedFrames = 0;
    std::uint64_t listedBlocks = 0;
    for (unsigned order = 0; order <= maxOrder_; ++order) {
        const std::uint64_t count = std::uint64_t{1} << order;
        std::uint64_t blocks = 0;
        std::uint32_t prev = noBlock;
        for (std::uint32_t pfn = listHead_[order]; pfn != noBlock;
             pfn = links_[pfn].next) {
            if (++blocks > listCount_[order] || links_[pfn].prev != prev ||
                !isFreeBlock(pfn, order) || pfn + count > totalFrames_ ||
                anyAllocated(pfn, count)) {
                return false;
            }
            prev = pfn;
        }
        if (blocks != listCount_[order])
            return false;
        listedFrames += blocks * count;
        listedBlocks += blocks;
    }

    // No head mark outside the lists.
    std::uint64_t marked = 0;
    for (Pfn pfn = 0; pfn < totalFrames_; ++pfn)
        marked += freeHead_[pfn] != 0;
    return listedFrames == freeFrames_ && marked == listedBlocks;
}

} // namespace asap
