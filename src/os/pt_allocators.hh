/**
 * @file
 * Page-table node placement policies (paper Section 3.3).
 *
 * BuddyPtAllocator: vanilla Linux behaviour — every PT node frame comes
 * from the buddy allocator's first available slot, interleaving with data
 * frames and scattering the table across physical memory.
 *
 * AsapPtAllocator: the paper's OS extension — at VMA creation time a
 * contiguous physical region is reserved per (VMA, PT level), and node
 * frames are handed out *sorted by virtual address*: the node covering
 * virtual offset O within the VMA lives at basePfn + O / nodeSpan(level).
 * This is exactly the property that makes base-plus-offset prefetch
 * addressing possible. VMA growth extends the region in place when the
 * adjacent frames are free (or can be cleared by relocating data pages);
 * otherwise the grown slots become "holes" served by the buddy allocator
 * (Section 3.7.2), which the prefetcher cannot accelerate.
 */

#ifndef ASAP_OS_PT_ALLOCATORS_HH
#define ASAP_OS_PT_ALLOCATORS_HH

#include <cstdint>
#include <map>
#include <unordered_set>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "os/buddy_allocator.hh"
#include "os/vma.hh"
#include "pt/page_table.hh"

namespace asap
{

/**
 * Callback used when a reserved PT region must grow over frames that are
 * currently occupied: the owner of the frame (the address space) may be
 * able to relocate its contents elsewhere, mirroring the background
 * compaction the paper relies on (Section 3.7.2).
 */
class FrameRelocator
{
  public:
    virtual ~FrameRelocator() = default;

    /** Try to move the page occupying @p pfn; true if the frame is now
     *  free. */
    virtual bool relocateFrame(Pfn pfn) = 0;
};

/** Observer of VMA lifecycle events (implemented by AsapPtAllocator). */
class VmaObserver
{
  public:
    virtual ~VmaObserver() = default;
    virtual void onVmaCreated(const Vma &) {}
    virtual void onVmaGrown(const Vma &, VirtAddr, FrameRelocator *) {}
    /**
     * The VMA is being destroyed (munmap, dyn subsystem). Fired after
     * its page-table nodes have been pruned, so reserved PT regions can
     * release their physical runs in one piece.
     */
    virtual void onVmaRemoved(const Vma &) {}
};

/** Linux-style placement: nodes scattered by the buddy allocator. */
class BuddyPtAllocator : public PtNodeAllocator
{
  public:
    explicit BuddyPtAllocator(BuddyAllocator &buddy) : buddy_(buddy) {}

    Pfn
    allocNodeFrame(unsigned, VirtAddr) override
    {
        return buddy_.allocFrame();
    }

    void
    freeNodeFrame(unsigned, Pfn pfn) override
    {
        buddy_.freeFrame(pfn);
    }

  private:
    BuddyAllocator &buddy_;
};

/**
 * ASAP placement: per-(VMA, level) contiguous regions, virtually sorted.
 */
class AsapPtAllocator : public PtNodeAllocator, public VmaObserver
{
  public:
    /** A reserved contiguous region for one (VMA, level). */
    struct Region
    {
        std::uint64_t vmaId = 0;
        unsigned level = 1;
        VirtAddr vaBase = 0;      ///< VMA start aligned down to nodeSpan
        VirtAddr vaEnd = 0;       ///< VMA end aligned up to nodeSpan
        Pfn basePfn = invalidPfn; ///< first frame of the reserved run
        std::uint64_t slots = 0;  ///< total node slots the VMA needs
        std::uint64_t backedSlots = 0; ///< contiguously backed prefix
        std::uint64_t usedSlots = 0;   ///< slots actually populated

        bool valid() const { return basePfn != invalidPfn; }

        /** Node slot index for @p va. */
        std::uint64_t
        slotOf(VirtAddr va) const
        {
            return (va - vaBase) >> (levelShift(level) + levelBits);
        }

        /**
         * Physical address of the PT *entry* for @p va: the paper's
         * base-plus-offset computation (offset >> s, s1=9 for PL1,
         * s2=18 for PL2).
         */
        PhysAddr
        entryAddrOf(VirtAddr va) const
        {
            return (basePfn << pageShift) +
                   ((va - vaBase) >> levelShift(level)) * pteSize;
        }
    };

    /**
     * @param buddy        physical frame source.
     * @param targetLevels PT levels that get reserved regions
     *                     (paper default: PL1 and PL2).
     */
    AsapPtAllocator(BuddyAllocator &buddy,
                    std::vector<unsigned> targetLevels = {1, 2});

    // PtNodeAllocator interface
    Pfn allocNodeFrame(unsigned level, VirtAddr va) override;
    void freeNodeFrame(unsigned level, Pfn pfn) override;

    // VmaObserver interface
    void onVmaCreated(const Vma &vma) override;
    void onVmaGrown(const Vma &vma, VirtAddr oldEnd,
                    FrameRelocator *relocator) override;
    void onVmaRemoved(const Vma &vma) override;

    /** Region for (va, level); nullptr if none/invalid. */
    const Region *regionFor(VirtAddr va, unsigned level) const;

    /** All regions (for building range-register descriptors). */
    std::vector<const Region *> regions() const;

    /**
     * Inject artificial holes: each slot is unbacked with probability
     * @p fraction (deterministic per slot). Models the paper's pinned-
     * page fallback; used by the hole ablation. Must be set before VMAs
     * are created.
     */
    void setHoleFraction(double fraction, std::uint64_t seed = 12345);

    /** True if the node slot for (va, level) is served from its region. */
    bool slotBacked(VirtAddr va, unsigned level) const;

    std::uint64_t reservedFrames() const { return reservedFrames_; }
    std::uint64_t fallbackAllocs() const { return fallbackAllocs_; }
    std::uint64_t regionAllocs() const { return regionAllocs_; }
    std::uint64_t failedReservations() const { return failedReservations_; }
    std::uint64_t holesCreatedByGrowth() const { return growthHoles_; }
    std::uint64_t framesRelocatedForGrowth() const { return relocated_; }
    /** Regions torn down by VMA removal, and the frames they returned
     *  (dyn subsystem; coverage-loss accounting). */
    std::uint64_t regionsReleased() const { return regionsReleased_; }
    std::uint64_t releasedFrames() const { return releasedFrames_; }

  private:
    bool isTargetLevel(unsigned level) const;
    bool isHoleSlot(const Region &region, std::uint64_t slot) const;
    Region *findRegion(VirtAddr va, unsigned level);
    const Region *findRegion(VirtAddr va, unsigned level) const;

    BuddyAllocator &buddy_;
    std::vector<unsigned> targetLevels_;
    /** per level: map vaBase -> Region (VMAs don't overlap). */
    std::vector<std::map<VirtAddr, Region>> regionsByLevel_;
    /** Frames handed out from regions (so freeNodeFrame can tell them
     *  apart from buddy fallback frames). */
    std::unordered_set<Pfn> regionFrames_;

    double holeFraction_ = 0.0;
    std::uint64_t holeSeed_ = 0;

    std::uint64_t reservedFrames_ = 0;
    std::uint64_t fallbackAllocs_ = 0;
    std::uint64_t regionAllocs_ = 0;
    std::uint64_t failedReservations_ = 0;
    std::uint64_t growthHoles_ = 0;
    std::uint64_t relocated_ = 0;
    std::uint64_t regionsReleased_ = 0;
    std::uint64_t releasedFrames_ = 0;
};

} // namespace asap

#endif // ASAP_OS_PT_ALLOCATORS_HH
