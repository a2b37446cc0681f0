/**
 * @file
 * A demand-paged process address space: VMAs + lazy PT population.
 *
 * Follows the Linux behaviour the paper depends on (Sections 3.2-3.3,
 * 3.7.1): VMAs are created eagerly by mmap, but data frames and PT nodes
 * are allocated only on first touch (a page fault). Data frames always
 * come from the buddy allocator; PT node frames come from the pluggable
 * PtNodeAllocator so the same address space runs with vanilla or ASAP
 * page-table placement.
 *
 * The address space also implements FrameRelocator: when a reserved PT
 * region needs to grow over an occupied frame, movable data pages are
 * migrated elsewhere (remap + frame copy), modeling the paper's
 * asynchronous background region extension.
 */

#ifndef ASAP_OS_ADDRESS_SPACE_HH
#define ASAP_OS_ADDRESS_SPACE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "common/zero_pages.hh"
#include "os/buddy_allocator.hh"
#include "os/pt_allocators.hh"
#include "os/vma.hh"
#include "pt/page_table.hh"

namespace asap
{

struct AddressSpaceConfig
{
    unsigned ptLevels = numPtLevels;
    /** Map data with 2MB pages (used for the host under Fig. 12). */
    bool hugePages = false;
    /** First mmap base; VMAs are separated by 1GiB guard gaps. */
    VirtAddr mmapBase = 0x10000000000ull;
    /** Probability a data page is pinned (unmovable during PT-region
     *  growth, Section 3.7.2). */
    double pinnedProb = 0.0;
    /** Seed for the pinning decisions. */
    std::uint64_t seed = 42;
};

class AddressSpace : public FrameRelocator
{
  public:
    AddressSpace(BuddyAllocator &frames, PtNodeAllocator &ptAllocator,
                 const AddressSpaceConfig &config = {});

    /** Register a VMA lifecycle observer (e.g. the ASAP PT allocator). */
    void addObserver(VmaObserver *observer);

    /**
     * Create a VMA of @p bytes (page-rounded). Observers are notified so
     * that ASAP PT regions can be reserved at creation time.
     * @return the VMA id.
     */
    std::uint64_t mmap(std::uint64_t bytes, const std::string &name,
                       bool prefetchable = false);

    /** Create a VMA at a fixed address (tests / the host "guest VM"
     *  mapping which must start at guest-physical 0). */
    std::uint64_t mmapAt(VirtAddr start, std::uint64_t bytes,
                         const std::string &name, bool prefetchable = false);

    /** Grow a VMA toward higher addresses (heap brk semantics). */
    bool extendVma(std::uint64_t id, std::uint64_t bytes);

    /** Counters of one teardown operation (dyn subsystem). */
    struct UnmapCounts
    {
        VirtAddr start = 0;
        VirtAddr end = 0;
        std::uint64_t dataPagesFreed = 0;
        std::uint64_t ptNodesFreed = 0;
    };

    /**
     * Destroy VMA @p id (munmap of the whole area): unmap and free its
     * data frames, prune the page-table nodes left empty under it,
     * notify observers (releasing any reserved ASAP PT regions) and
     * drop the VMA. The caller owns TLB/PWC shootdown for the returned
     * range — the address space is pure OS state.
     */
    UnmapCounts munmapVma(std::uint64_t id);

    /**
     * madvise(MADV_DONTNEED): give back the frames of [@p start,
     * start + nPages * 4KB) and prune emptied PT nodes, keeping the VMA
     * (and any ASAP region, whose slots refill in place on refault).
     * The range must lie inside one VMA. Caller handles shootdown.
     */
    UnmapCounts madviseFree(VirtAddr start, std::uint64_t nPages);

    struct TouchResult
    {
        bool faulted = false;
        Translation translation;
    };

    /**
     * Ensure @p va is mapped (allocating on first touch) and return its
     * translation. A fault outside every VMA panics.
     */
    TouchResult touch(VirtAddr va) { return touchRange(va, 1); }

    /**
     * touch() each of @p pages pages from @p start on, in page order,
     * with one page-table descent per PL1 node (PageTable::populate)
     * and one VMA lookup per VMA the faults land in. Frames, counters
     * and pin draws come out exactly as from the per-page loop; a range
     * running into an unmapped gap panics at the gap's first page, as
     * touch() does. 2MB-page spaces fault page by page. @return the
     * last page's result.
     */
    TouchResult touchRange(VirtAddr start, std::uint64_t pages);

    /** Functional translation without faulting. */
    std::optional<Translation> translate(VirtAddr va) const;

    /**
     * Back [start, start + nPages * 4KB) with one physically-contiguous
     * run, pinning it. Used by the hypervisor to guarantee that guest PT
     * regions are contiguous in *host* physical memory (Section 3.6).
     * @return the first host frame, or invalidPfn on failure.
     */
    Pfn backRangeContiguous(VirtAddr start, std::uint64_t nPages);

    // FrameRelocator
    bool relocateFrame(Pfn pfn) override;

    PageTable &pageTable() { return pt_; }
    const PageTable &pageTable() const { return pt_; }
    VmaTree &vmas() { return vmas_; }
    const VmaTree &vmas() const { return vmas_; }
    BuddyAllocator &frames() { return frames_; }

    std::uint64_t pageFaults() const { return pageFaults_; }
    std::uint64_t touchedPages() const { return touchedPages_; }
    std::uint64_t relocations() const { return relocations_; }

    /** Smallest number of VMAs covering @p coverage of the touched
     *  footprint (Table 2, coverage = 0.99). */
    std::uint64_t vmasForFootprintCoverage(double coverage) const;

  private:
    VirtAddr pickMmapBase(std::uint64_t bytes);
    void notifyCreated(const Vma &vma);
    /** Unmap + free the mapped pages of [start, end) within @p vma. */
    UnmapCounts unmapRange(Vma &vma, VirtAddr start, VirtAddr end);

    BuddyAllocator &frames_;
    AddressSpaceConfig config_;
    PageTable pt_;
    VmaTree vmas_;
    std::vector<VmaObserver *> observers_;

    /**
     * data frame -> base VA of the page mapped there, plus one (movable
     * pages). 0 means no data page: page-aligned VAs never make va + 1
     * zero, and the host space does map VA (gPA) 0. Zero pages indexed
     * by frame number, like pinned_, so untouched frames cost nothing.
     */
    ZeroPageArray<VirtAddr> reverseMap_;
    ZeroPageArray<std::uint8_t> pinned_;

    Rng pinRng_;
    VirtAddr nextMmap_;
    std::uint64_t pageFaults_ = 0;
    std::uint64_t touchedPages_ = 0;
    std::uint64_t relocations_ = 0;
};

} // namespace asap

#endif // ASAP_OS_ADDRESS_SPACE_HH
