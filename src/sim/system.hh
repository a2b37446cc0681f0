/**
 * @file
 * The software side of a simulated machine: physical memory, the OS
 * address space(s), page-table placement policy, and — under
 * virtualization — the hypervisor glue (guest-physical backing, nested
 * PT, contiguous host backing of guest ASAP regions, Section 3.6).
 *
 * A System is constructed per scenario:
 *  - native or virtualized;
 *  - baseline (buddy-scattered) or ASAP (contiguous+sorted) PT placement;
 *  - optional host 2MB pages (Fig. 12);
 *  - optional buddy churn to model long-uptime fragmentation;
 *  - optional 5-level page tables (Section 3.5).
 */

#ifndef ASAP_SIM_SYSTEM_HH
#define ASAP_SIM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "core/range_registers.hh"
#include "obs/registry.hh"
#include "os/address_space.hh"
#include "os/buddy_allocator.hh"
#include "os/pt_allocators.hh"
#include "walk/nested_walker.hh"

namespace asap
{

struct SystemConfig
{
    /** ASAP PT placement (contiguous sorted regions) vs vanilla buddy. */
    bool asapPlacement = false;
    /** PT levels the ASAP allocator reserves regions for. */
    std::vector<unsigned> asapLevels = {1, 2};

    bool virtualized = false;
    /** Host maps guest memory with 2MB pages (Fig. 12 scenario). */
    bool hostHugePages = false;

    unsigned ptLevels = numPtLevels;       ///< guest/native PT depth
    unsigned hostPtLevels = numPtLevels;   ///< host PT depth

    std::uint64_t machineMemBytes = 32_GiB; ///< host/native physical mem
    std::uint64_t guestMemBytes = 16_GiB;   ///< guest-physical size

    /** Buddy churn at machine level (fragmentation, Table 7 shape). */
    std::uint64_t churnOps = 0;
    unsigned churnMaxOrder = 4;
    /** Buddy churn inside the guest-physical allocator. */
    std::uint64_t guestChurnOps = 0;

    /** Probability a data page is pinned (Section 3.7.2 growth). */
    double pinnedProb = 0.0;
    /** Artificial ASAP region holes (ablation A3). */
    double holeFraction = 0.0;

    std::uint64_t seed = 1;
};

/**
 * Observer of the process-facing OS calls a Workload::setup makes.
 *
 * Used by the trace recorder (src/workloads/trace.hh): a workload's
 * setup phase is fully described by its ordered mmap/touch sequence, so
 * capturing these two calls is enough to rebuild an identical address
 * space — VMA layout, demand-fault order, and hence buddy/ASAP physical
 * placement — when a trace is replayed.
 */
class SetupRecorder
{
  public:
    virtual ~SetupRecorder() = default;

    virtual void onMmap(std::uint64_t bytes, const std::string &name,
                        bool prefetchable) = 0;
    virtual void onTouch(VirtAddr va) = 0;
};

/**
 * OS + hypervisor model. Implements HostBacking so the nested walker
 * can demand host translations of guest-physical addresses.
 */
class System : public HostBacking
{
  public:
    explicit System(const SystemConfig &config);

    const SystemConfig &config() const { return config_; }
    bool virtualized() const { return config_.virtualized; }

    // ------------------------------------------------------------------
    // Process-facing OS interface (the workload's view)
    // ------------------------------------------------------------------

    /** Create an application VMA. */
    std::uint64_t mmap(std::uint64_t bytes, const std::string &name,
                       bool prefetchable = false);

    /** Grow an application VMA (heap brk); triggers PT-region extension
     *  and hole creation as per Section 3.7.2. */
    bool extendVma(std::uint64_t id, std::uint64_t bytes);

    /**
     * Destroy an application VMA mid-run (dyn subsystem): data frames
     * and emptied PT nodes return to their allocators, reserved ASAP PT
     * regions release their physical runs, and (under virtualization)
     * the hypervisor forgets the region's contiguous-backing bases. The
     * machine-side shootdown (Machine::invalidateRange over the
     * returned range) is the caller's job — the System is OS state.
     */
    AddressSpace::UnmapCounts munmap(std::uint64_t id);

    /** madvise(MADV_DONTNEED) on [start, start + nPages * 4KB): frames
     *  and emptied PT nodes are freed, the VMA (and any ASAP region)
     *  stays, and later touches refault. Caller handles shootdown. */
    AddressSpace::UnmapCounts madviseFree(VirtAddr start,
                                          std::uint64_t nPages);

    /** Return @p fraction of the machine's churn-held blocks (tenant
     *  departure on a long-uptime host). @return frames released. */
    std::uint64_t releaseMachineChurn(double fraction);

    /**
     * Demand-fault @p va (and, under virtualization, back the data page
     * and its guest PT nodes in host memory). Used both for prefaulting
     * and for servicing faults during simulation.
     */
    AddressSpace::TouchResult touch(VirtAddr va) { return touchRange(va, 1); }

    /**
     * touch() each of @p pages pages from @p start on, in page order:
     * the prefault path. The guest side runs as one
     * AddressSpace::touchRange; the host then backs, page by page, the
     * data page and (once per guest PL1 node) the guest PT path. Every
     * frame and counter comes out as from the per-page loop, and an
     * attached SetupRecorder sees one onTouch per page. @return the
     * last page's result.
     */
    AddressSpace::TouchResult touchRange(VirtAddr start,
                                         std::uint64_t pages);

    /** The application's (guest's) address space. */
    AddressSpace &appSpace() { return *appSpace_; }
    const AddressSpace &appSpace() const { return *appSpace_; }

    /** The application's (guest's) page table. */
    const PageTable &appPt() const { return appSpace_->pageTable(); }

    /** The hypervisor-side space mapping guest-physical memory
     *  (virtualized systems only). */
    AddressSpace &hostSpace();
    const PageTable &hostPt() const;

    /** Machine-level physical allocator (host under virtualization). */
    BuddyAllocator &machineFrames() { return *machineFrames_; }

    /** The ASAP allocators (nullptr when running baseline placement). */
    const AsapPtAllocator *appAsapAllocator() const { return appAsap_; }
    const AsapPtAllocator *hostAsapAllocator() const { return hostAsap_; }

    // ------------------------------------------------------------------
    // HostBacking (hypervisor demand paging)
    // ------------------------------------------------------------------
    void ensureBacked(PhysAddr gpa) override;
    PhysAddr hostPhysOf(PhysAddr gpa) const override;

    // ------------------------------------------------------------------
    // Range-register descriptor sources (Section 3.4 / 3.6)
    // ------------------------------------------------------------------

    /**
     * Descriptors for the application's VMAs. Natively, region bases are
     * machine-physical; under virtualization they are the *host* bases
     * of the hypervisor-backed guest regions.
     */
    std::vector<VmaDescriptor> appDescriptors() const;

    /** Host-dimension descriptor: the whole guest VM as one host VMA. */
    std::vector<VmaDescriptor> hostDescriptors() const;

    /** Machine-physical bytes (co-runner address range). */
    std::uint64_t machineMemBytes() const
    { return config_.machineMemBytes; }

    /** Register the OS-side counters (buddy allocator, address spaces,
     *  ASAP PT allocators) under stable dotted names. */
    void registerCounters(obs::Registry &registry) const;

    /**
     * Attach (or detach, with nullptr) a recorder observing mmap/touch.
     * Only the setup phase of a workload should run while a recorder is
     * attached; simulation-time fault servicing must not be recorded.
     */
    void setRecorder(SetupRecorder *recorder) { recorder_ = recorder; }

  private:
    void backGuestAsapRegions(std::uint64_t vmaId);
    /** The host half of touchRange (see there). */
    void backGuestRange(VirtAddr start, std::uint64_t pages);

    SystemConfig config_;

    /** Machine-level (host) physical memory. */
    std::unique_ptr<BuddyAllocator> machineFrames_;

    /** Guest-physical memory (virtualized only; otherwise the app space
     *  allocates straight from machineFrames_). */
    std::unique_ptr<BuddyAllocator> guestFrames_;

    std::unique_ptr<PtNodeAllocator> appPtAllocator_;
    AsapPtAllocator *appAsap_ = nullptr;     ///< non-owning view
    std::unique_ptr<AddressSpace> appSpace_;

    std::unique_ptr<PtNodeAllocator> hostPtAllocator_;
    AsapPtAllocator *hostAsap_ = nullptr;
    std::unique_ptr<AddressSpace> hostSpace_;

    /** Host base PA for each hypervisor-backed guest region, keyed by
     *  the region's guest frame base. */
    std::unordered_map<Pfn, PhysAddr> guestRegionHostBase_;

    SetupRecorder *recorder_ = nullptr;
};

} // namespace asap

#endif // ASAP_SIM_SYSTEM_HH
