/**
 * @file
 * A binary buddy allocator modeling the Linux physical-page allocator.
 *
 * The paper's key observation (Section 3.3) is that the buddy allocator
 * "optimizes for allocation speed, allocating pages on demand in first
 * available slots", so page-table node frames end up scattered and
 * uncorrelated with the virtual pages they map. This model reproduces
 * that mechanically: demand paging interleaves data-frame and PT-frame
 * allocations, and an optional churn pass emulates a long-running
 * multi-tenant machine whose free lists are fragmented.
 *
 * The ASAP OS extension additionally needs two primitives:
 *  - reserveContiguous(n): a contiguous run for a per-VMA PT region;
 *  - reserveRange(start, n): in-place extension of an existing region
 *    when the VMA grows (Section 3.7.2) — succeeds only if the frames
 *    adjacent to the region are free.
 *
 * Free lists. Each order keeps an intrusive doubly-linked LIFO list
 * threaded through per-frame links, plus a count; a per-frame byte
 * holding order+1 marks the first frame of every free block, so the
 * coalescing and containment checks are one byte load. The lists hand
 * out blocks in exactly the order of the stack-with-lazy-deletion this
 * model started with: that stack popped only live entries, and a
 * block's live entry was always its topmost copy (a re-push lands
 * above any stale one), so popping it equals popping the front of a
 * list with O(1) unlink. tests/test_buddy.cc drives both side by side.
 *
 * Every per-frame array (allocated bits, links, head bytes) lives in
 * zero pages (common/zero_pages.hh) and all-zero is the initial state:
 * the bitmap records *allocated* frames, so a fresh allocator is all
 * free without the constructor writing a per-frame byte.
 */

#ifndef ASAP_OS_BUDDY_ALLOCATOR_HH
#define ASAP_OS_BUDDY_ALLOCATOR_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "common/zero_pages.hh"

namespace asap
{

class BuddyAllocator
{
  public:
    static constexpr unsigned defaultMaxOrder = 18;  ///< 1GB blocks

    /**
     * @param totalFrames physical memory size in 4KB frames.
     * @param maxOrder    largest block order managed (2^maxOrder frames).
     */
    explicit BuddyAllocator(std::uint64_t totalFrames,
                            unsigned maxOrder = defaultMaxOrder);

    /** Allocate a 2^order-frame aligned block; invalidPfn on failure. */
    Pfn allocBlock(unsigned order);

    /** Free a block previously returned by allocBlock/reserve*. */
    void freeBlock(Pfn pfn, unsigned order);

    /** Single-frame convenience wrappers. */
    Pfn allocFrame() { return allocBlock(0); }
    void freeFrame(Pfn pfn) { freeBlock(pfn, 0); }

    /**
     * Reserve @p nFrames physically-contiguous frames (not necessarily a
     * power of two). Used by the ASAP PT allocator for per-VMA PT-level
     * regions. @return the first frame, or invalidPfn if no sufficiently
     * large block exists (fragmentation).
     */
    Pfn reserveContiguous(std::uint64_t nFrames);

    /**
     * Reserve the *specific* frame range [start, start+n) if every frame
     * in it is currently free. Models in-place extension of a reserved PT
     * region when its VMA grows. @return true on success.
     */
    bool reserveRange(Pfn start, std::uint64_t nFrames);

    /** Free an arbitrary (non-power-of-two) contiguous run. */
    void freeRange(Pfn start, std::uint64_t nFrames);

    /** True iff @p pfn is currently free. */
    bool isFree(Pfn pfn) const;

    /**
     * Fragment the allocator by performing @p ops random allocations of
     * random orders up to @p maxChurnOrder, keeping roughly
     * @p holdFraction of them live forever (long-lived co-tenant data).
     * Models a machine that has been up for a while (Section 2.5:
     * "contiguity characteristics can vary greatly across runs").
     */
    void churn(Rng &rng, std::uint64_t ops, unsigned maxChurnOrder = 4,
               double holdFraction = 0.5);

    /**
     * Return churn-held blocks to the free lists: the co-tenant whose
     * long-lived data churn() modeled departs mid-run (dyn subsystem).
     * Releases the most recently held ceil(fraction * held) blocks
     * (LIFO — the youngest tenant leaves first) and coalesces them.
     * @return the number of frames freed.
     */
    std::uint64_t releaseChurn(double fraction = 1.0);

    /** Blocks currently held by churn(). */
    std::uint64_t churnHeldBlocks() const { return churnHeld_.size(); }

    std::uint64_t totalFrames() const { return totalFrames_; }
    std::uint64_t freeFrames() const { return freeFrames_; }
    std::uint64_t allocatedFrames() const
    { return totalFrames_ - freeFrames_; }

    /** Order of the largest free block (fragmentation diagnostic). */
    int largestFreeOrder() const;

    /**
     * Free-list fragmentation score: per-mille of free frames *not*
     * usable for a contiguous 2^@p order-frame allocation (Linux's
     * "unusable free space index", scaled to integers). 0 = every
     * free frame sits in a block of at least that size; 1000 = no
     * such block exists. Computed from the per-order free counts —
     * deterministic integer arithmetic, read-only. Default order 9 =
     * a 2MB region, the contiguity grain ASAP PT reservations and
     * huge pages both care about.
     */
    std::uint64_t fragmentationPermille(unsigned order = 9) const;

    /** Internal consistency check (tests): the free lists, head
     *  marks and allocated bits agree. */
    bool checkConsistency() const;

  private:
    /** List link meaning "no block". */
    static constexpr std::uint32_t noBlock = ~std::uint32_t{0};

    struct Links
    {
        std::uint32_t next;
        std::uint32_t prev;
    };

    void pushFree(Pfn pfn, unsigned order);
    void eraseFree(Pfn pfn, unsigned order);
    /** Pop the order's most recently freed block; invalidPfn if empty. */
    Pfn popFree(unsigned order);
    bool
    isFreeBlock(Pfn pfn, unsigned order) const
    {
        return freeHead_[pfn] == order + 1;
    }
    void markFrames(Pfn start, std::uint64_t count, bool free);
    /** True iff any frame of [start, start + count) is allocated. */
    bool anyAllocated(Pfn start, std::uint64_t count) const;
    /**
     * Find the free block containing @p pfn; returns its order or -1.
     * @p blockStart receives the block's first frame.
     */
    int findFreeBlockContaining(Pfn pfn, Pfn &blockStart) const;
    /**
     * Re-insert the parts of free block [blockStart, +2^order) that fall
     * outside [lo, hi) back into the free structures.
     */
    void carve(Pfn blockStart, unsigned order, Pfn lo, Pfn hi);

    std::uint64_t totalFrames_;
    unsigned maxOrder_;
    std::uint64_t freeFrames_ = 0;

    /** Per-order list head (noBlock when empty) and block count. */
    std::vector<std::uint32_t> listHead_;
    std::vector<std::uint64_t> listCount_;

    /** Per-frame list links, valid at free-block heads only. */
    ZeroPageArray<Links> links_;
    /** Per-frame order+1 at the first frame of a free block, else 0. */
    ZeroPageArray<std::uint8_t> freeHead_;
    /** One bit per frame, set while the frame is allocated. */
    ZeroPageArray<std::uint64_t> allocated_;

    /** Blocks held live by churn() until releaseChurn() returns them. */
    std::vector<std::pair<Pfn, unsigned>> churnHeld_;
};

} // namespace asap

#endif // ASAP_OS_BUDDY_ALLOCATOR_HH
