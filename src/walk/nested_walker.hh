/**
 * @file
 * The 2D nested page walk used under hardware virtualization
 * (paper Section 2.1 and Figure 7).
 *
 * Every access to a guest PT node requires a full 1D walk of the host
 * page table to translate the node's guest-physical address, plus the
 * access to the node itself; a final host walk translates the data
 * page's guest-physical address. With four guest levels this is the
 * (in)famous 24-access walk: 5 host walks x 4 accesses + 4 guest node
 * accesses.
 *
 * ASAP applies in both dimensions (Section 3.6): a guest-dimension hook
 * fires once at 2D-walk start (prefetching gPT PL1/PL2 nodes, whose
 * host-physical locations are known because the hypervisor backs the
 * guest's sorted PT regions contiguously), and the host-dimension hook
 * fires at the start of every constituent host 1D walk via the host
 * PageWalker it is attached to.
 */

#ifndef ASAP_WALK_NESTED_WALKER_HH
#define ASAP_WALK_NESTED_WALKER_HH

#include <cstdint>

#include "common/types.hh"
#include "mem/hierarchy.hh"
#include "pt/page_table.hh"
#include "walk/pwc.hh"
#include "walk/walker.hh"

namespace asap
{

/**
 * Demand-backing service: the hypervisor maps guest-physical pages into
 * host-physical memory lazily; the walker asks for backing before
 * touching a guest-physical address.
 */
class HostBacking
{
  public:
    virtual ~HostBacking() = default;

    /** Ensure the host PT maps the page containing @p gpa. */
    virtual void ensureBacked(PhysAddr gpa) = 0;

    /** Host-physical address for @p gpa (must be backed). */
    virtual PhysAddr hostPhysOf(PhysAddr gpa) const = 0;
};

/** Outcome of one nested walk. */
struct NestedWalkResult
{
    Cycles latency = 0;
    bool fault = false;             ///< guest-side page fault
    /** Effective va -> host-frame translation to install in the TLB. */
    Translation translation;
    /** Guest-dimension leaf level (page size seen by the guest). */
    unsigned guestLeafLevel = 1;
    /** Number of hierarchy accesses performed (<= 24 for 4-level). */
    unsigned memAccesses = 0;
};

class NestedWalker
{
  public:
    /**
     * @param guestPt    the guest page table (entries hold gPFNs).
     * @param guestPwc   dedicated guest-dimension PWC (Table 5).
     * @param hostWalker walker over the *host* PT, with its own PWC and
     *                   (optionally) host-dimension ASAP hook attached.
     * @param mem        shared memory hierarchy.
     * @param backing    hypervisor demand-backing service.
     * @param guestHook  guest-dimension ASAP hook (nullptr = off).
     */
    NestedWalker(const PageTable &guestPt, PageWalkCaches &guestPwc,
                 PageWalker &hostWalker, MemoryHierarchy &mem,
                 HostBacking &backing, PrefetchHook *guestHook = nullptr);

    NestedWalkResult walk(VirtAddr va, Cycles now);

    std::uint64_t walks() const { return walks_; }
    std::uint64_t faults() const { return faults_; }

  private:
    const PageTable &guestPt_;
    PageWalkCaches &guestPwc_;
    PageWalker &hostWalker_;
    MemoryHierarchy &mem_;
    HostBacking &backing_;
    PrefetchHook *guestHook_;

    std::uint64_t walks_ = 0;
    std::uint64_t faults_ = 0;

    /** Result storage reused by the constituent host 1D walks. */
    WalkResult hostScratch_;
};

} // namespace asap

#endif // ASAP_WALK_NESTED_WALKER_HH
