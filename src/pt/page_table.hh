/**
 * @file
 * The radix-tree page table (paper Figure 1), supporting the conventional
 * four-level x86-64 layout, the five-level extension (Section 3.5), and
 * 2MB/1GB large-page leaves.
 *
 * The table is stored exactly the way a hardware walker sees it: nodes are
 * 4KB frames of 512 eight-byte entries, addressed by physical frame number.
 * Where those frames *live* is decided by a pluggable PtNodeAllocator —
 * the vanilla Linux buddy placement and the ASAP contiguous/sorted
 * placement are both implemented in src/os.
 *
 * Storage layout: nodes live in a slab (one contiguous std::vector) and
 * every traversal — hardware walks, functional lookups, OS metadata
 * updates — chases 32-bit slab indices kept next to the entries, so the
 * per-level cost is one indexed load instead of a hash lookup. A
 * pfn -> slab-index side map exists only for the off-hot-path queries
 * (tests, diagnostics, frame-keyed node access); nothing on a simulated
 * hot path touches it. Node frames are never freed before the table is
 * destroyed (unmap retains intermediate nodes, as Linux does), so slab
 * indices are stable for the table's lifetime and can be cached in the
 * page walk caches.
 *
 * The slab grows the way std::vector does. Reserving it to a prefault
 * range's exact size is a dead end: the first node a tenant then
 * creates at run time reallocates, and so re-faults, the whole slab
 * inside the measured simulation. A prototype of the range prefault
 * path (populate below) measured that as 8,000 extra page faults in
 * simbench's tenant_churn and -7% sim_rate; it has not been re-measured
 * on this code.
 */

#ifndef ASAP_PT_PAGE_TABLE_HH
#define ASAP_PT_PAGE_TABLE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "pt/pte.hh"

namespace asap
{

/** Slab index of a PT node; stable for the table's lifetime. */
using PtNodeIndex = std::uint32_t;

/** Sentinel for "no node" (absent child, unknown pfn). */
constexpr PtNodeIndex invalidPtNodeIndex = ~PtNodeIndex{0};

/**
 * Placement policy for page-table node frames.
 *
 * The allocator decides the physical frame a new PT node occupies. The
 * buddy-backed implementation scatters nodes (interleaved with data-frame
 * allocations, as the Linux buddy allocator does); the ASAP implementation
 * hands out frames from per-VMA contiguous regions sorted by virtual
 * address (paper Section 3.3).
 */
class PtNodeAllocator
{
  public:
    virtual ~PtNodeAllocator() = default;

    /**
     * Allocate a frame for the PT node at @p level covering @p va.
     * @param level PT level of the *node* being created (1 = leaf node).
     * @param va    any virtual address inside the node's span.
     */
    virtual Pfn allocNodeFrame(unsigned level, VirtAddr va) = 0;

    /** Release a node frame (VMA teardown). */
    virtual void freeNodeFrame(unsigned level, Pfn pfn) = 0;
};

/**
 * One 4KB page-table node: 512 PTEs, plus the software-side walk
 * metadata (own frame number, level, and the slab index of each present
 * non-leaf entry's child node).
 */
struct PtNode
{
    std::array<Pte, entriesPerNode> entries{};
    /** Slab index of the child node behind each non-leaf entry. */
    std::array<PtNodeIndex, entriesPerNode> children{};
    Pfn pfn = invalidPfn;       ///< frame this node occupies
    unsigned level = 1;
    unsigned populated = 0;     ///< number of present entries

    PtNode() { children.fill(invalidPtNodeIndex); }
};

/** Result of a functional translation. */
struct Translation
{
    Pfn pfn = invalidPfn;       ///< frame of the (base-)page
    unsigned leafLevel = 1;     ///< 1 = 4KB, 2 = 2MB, 3 = 1GB
    PhysAddr pteAddr = 0;       ///< physical address of the leaf entry

    /** Physical address for @p va given this translation. */
    PhysAddr
    physAddrOf(VirtAddr va) const
    {
        const std::uint64_t span = levelSpan(leafLevel);
        return (pfn << pageShift) + (va & (span - 1));
    }
};

/**
 * A process (or nested/host) page table.
 */
class PageTable
{
  public:
    /**
     * @param allocator placement policy for node frames (not owned).
     * @param levels    4 (default) or 5 (Section 3.5 extension).
     */
    PageTable(PtNodeAllocator &allocator, unsigned levels = numPtLevels);
    ~PageTable();

    PageTable(const PageTable &) = delete;
    PageTable &operator=(const PageTable &) = delete;

    /**
     * Install the mapping va -> pfn with a leaf at @p leafLevel
     * (1 = 4KB page, 2 = 2MB page, 3 = 1GB page), creating intermediate
     * nodes on demand. Mirrors the OS page-fault handler populating the
     * table lazily (paper Section 3.7.1).
     */
    void map(VirtAddr va, Pfn pfn, unsigned leafLevel = 1);

    /**
     * The range fault path: make each of @p pages pages from @p start
     * on present, in page order, with one descent per PL1 node and the
     * node's leaf entries walked in place. An absent page first calls
     * @p fault(va) for its data frame; only then are the page's missing
     * PT nodes created, top down. That is the order a per-page fault
     * allocates in (data frame, then map()), so buddy and ASAP
     * placement come out frame for frame the same. The range must not
     * cross a huge leaf. @p faulted receives whether the last page
     * faulted. @return the last page's translation.
     */
    template <typename Fault>
    Translation populate(VirtAddr start, std::uint64_t pages, Fault &&fault,
                         bool &faulted);

    /** Remove a mapping; intermediate nodes are retained (as in Linux). */
    void unmap(VirtAddr va);

    /**
     * Free every node left empty under [@p start, @p end): the
     * free_pgtables() pass of munmap (dyn subsystem). Only nodes whose
     * span intersects the range are visited, and only fully unpopulated
     * ones are freed (their frame goes back to the PtNodeAllocator and
     * the parent entry is cleared); the root always survives. The slab
     * entry is retained but marked dead (pfn = invalidPfn) so live
     * indices stay stable — callers must shoot down any PWC entries
     * covering the range, since cached child indices into freed nodes
     * are now stale. @return the number of nodes freed.
     */
    std::uint64_t pruneRange(VirtAddr start, VirtAddr end);

    /** Functional lookup, no latency modeling. */
    std::optional<Translation> lookup(VirtAddr va) const;

    /** True iff @p va currently has a present leaf mapping. */
    bool isMapped(VirtAddr va) const { return lookup(va).has_value(); }

    /** Frame number of the root node (the CR3 contents). */
    Pfn rootPfn() const { return slab_[rootIndex_].pfn; }

    /** Number of radix levels (4 or 5). */
    unsigned levels() const { return levels_; }

    // ------------------------------------------------------------------
    // Pointer-chased hot-path interface (walkers, functional lookups)
    // ------------------------------------------------------------------

    /** Slab index of the root node. */
    PtNodeIndex rootIndex() const { return rootIndex_; }

    /** The node at @p index; index must come from this table. */
    const PtNode &
    nodeAt(PtNodeIndex index) const
    {
        return slab_[index];
    }

    /**
     * The PL1 node holding @p va's leaf entry, or nullptr when the path
     * is absent or terminates in a huge-page leaf above PL1. Used by the
     * clustered TLB to scan all eight cluster PTEs with one descent.
     */
    const PtNode *leafNodeOf(VirtAddr va) const;

    // ------------------------------------------------------------------
    // Frame-keyed interface (off the hot path: tests, OS bookkeeping)
    // ------------------------------------------------------------------

    /** Slab index for a node frame; invalidPtNodeIndex when @p pfn is
     *  not a PT node. Hash lookup — keep off simulated hot paths. */
    PtNodeIndex indexOf(Pfn pfn) const;

    /** Node lookup by frame number; nullptr if @p pfn is not a PT node. */
    const PtNode *node(Pfn pfn) const;

    /** Physical address of the entry for @p va inside node @p nodePfn. */
    static PhysAddr
    entryPhysAddr(Pfn nodePfn, VirtAddr va, unsigned level)
    {
        return (nodePfn << pageShift) + levelIndex(va, level) * pteSize;
    }

    /** Read the entry for @p va in the node at @p nodePfn / @p level. */
    Pte readEntry(Pfn nodePfn, VirtAddr va, unsigned level) const;

    /** Mark the leaf entry accessed/dirty (OS metadata path). */
    void setAccessed(VirtAddr va, bool dirty = false);

    /** Total number of *live* PT node pages (Table 2 "PT page count"). */
    std::uint64_t nodeCount() const { return slab_.size() - deadNodes_; }

    /** Slab entries freed by pruneRange (diagnostics). */
    std::uint64_t deadNodeCount() const { return deadNodes_; }

    /** Node pages at one level. */
    std::uint64_t nodeCountAtLevel(unsigned level) const;

    /**
     * Number of maximal runs of physically-contiguous PT node frames
     * (Table 2 "Contig. phys. regions"). A perfectly ASAP-ordered table
     * has one run per (VMA, level); a buddy-scattered one has thousands.
     */
    std::uint64_t countContiguousRegions() const;

    /** All node frame numbers, ascending (tests / diagnostics). */
    std::vector<Pfn> nodePfns() const;

  private:
    PtNodeIndex createNode(unsigned level, VirtAddr va);
    /** Slab index of the PL1 node holding @p va's leaf entry, or
     *  invalidPtNodeIndex when the path is absent or ends in a huge
     *  leaf. */
    PtNodeIndex leafIndexOf(VirtAddr va) const;
    /** Create the missing nodes on @p va's path, top down; @return the
     *  node at @p leafLevel holding its leaf entry. */
    PtNodeIndex ensurePath(VirtAddr va, unsigned leafLevel);
    std::uint64_t pruneNode(PtNodeIndex nodeIndex, VirtAddr nodeBase,
                            VirtAddr start, VirtAddr end);
    void releaseNode(PtNodeIndex index);

    PtNodeAllocator &allocator_;
    unsigned levels_;
    PtNodeIndex rootIndex_ = invalidPtNodeIndex;

    /** All nodes, in creation order. Indices are stable; the vector
     *  only grows. Entries freed by pruneRange stay in place, marked
     *  dead by pfn == invalidPfn (their frames are returned early);
     *  everything else is freed in the destructor. */
    std::vector<PtNode> slab_;
    std::uint64_t deadNodes_ = 0;

    /** pfn -> slab index, maintained for the frame-keyed interface. */
    std::unordered_map<Pfn, PtNodeIndex> pfnToIndex_;
};

template <typename Fault>
Translation
PageTable::populate(VirtAddr start, std::uint64_t pages, Fault &&fault,
                    bool &faulted)
{
    Translation last;
    VirtAddr va = start;
    while (pages > 0) {
        PtNodeIndex leaf = leafIndexOf(va);
        const unsigned first = levelIndex(va, 1);
        const unsigned end = static_cast<unsigned>(std::min<std::uint64_t>(
            entriesPerNode, first + pages));
        for (unsigned slot = first; slot < end; ++slot, va += pageSize) {
            faulted = leaf == invalidPtNodeIndex ||
                      !slab_[leaf].entries[slot].present();
            if (!faulted)
                continue;
            const Pfn pfn = fault(va);
            if (leaf == invalidPtNodeIndex)
                leaf = ensurePath(va, 1);
            PtNode &node = slab_[leaf];
            node.entries[slot] = Pte::make(pfn);
            ++node.populated;
        }
        pages -= end - first;
        const PtNode &node = slab_[leaf];
        last.pfn = node.entries[end - 1].pfn();
        last.leafLevel = 1;
        last.pteAddr = entryPhysAddr(node.pfn, va - pageSize, 1);
    }
    return last;
}

} // namespace asap

#endif // ASAP_PT_PAGE_TABLE_HH
