/**
 * @file
 * The hardware page-table walker (1D walk).
 *
 * On a TLB miss the walker traverses the radix tree level by level
 * (paper Figure 4a): it first consults the split PWCs to skip the upper
 * levels, then issues one memory-hierarchy access per remaining level.
 * Latencies are serial — each access starts when the previous one
 * finished — which is what makes the walk a pointer chase.
 *
 * The optional PrefetchHook is ASAP's only integration point: it is
 * invoked once at walk start (concurrently with the first access) and
 * may issue prefetches into the memory hierarchy. The walker itself is
 * completely unmodified by ASAP (paper Section 3.4): prefetched lines
 * are picked up naturally by the normal per-level accesses.
 */

#ifndef ASAP_WALK_WALKER_HH
#define ASAP_WALK_WALKER_HH

#include <array>
#include <cstdint>

#include "common/mem_level.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/hierarchy.hh"
#include "pt/page_table.hh"
#include "walk/pwc.hh"

namespace asap
{

/** ASAP integration point: notified when a walk begins. */
class PrefetchHook
{
  public:
    virtual ~PrefetchHook() = default;

    /** Called at walk start; may issue prefetches for deep PT levels. */
    virtual void onWalkStart(VirtAddr va, Cycles now) = 0;
};

/** Outcome of a single 1D walk. */
struct WalkResult
{
    Cycles latency = 0;
    bool fault = false;
    Translation translation;

    /** Per-PT-level serving information (Figure 9). Index by level. */
    std::array<MemLevel, 6> servedBy{};
    std::array<bool, 6> requested{};
    /** Cycles each level contributed to the serial chase (a PWC hit is
     *  charged to the deepest level it skipped to; the other skipped
     *  levels cost nothing extra). */
    std::array<Cycles, 6> levelLatency{};

    void
    record(unsigned level, MemLevel by, Cycles latency = 0)
    {
        servedBy[level] = by;
        requested[level] = true;
        levelLatency[level] = latency;
    }
};

/**
 * Functional+latency model of the hardware walker.
 *
 * Optionally translates the physical addresses of PT entries before
 * accessing the cache hierarchy: under virtualization the *guest* page
 * table lives in guest-physical memory, and its cache lines are tagged
 * by host-physical address. Native walks use the identity mapping.
 */
class PageWalker
{
  public:
    /** Maps the PT's own physical addresses to cache-tag addresses
     *  (identity natively; gPA -> hPA under virtualization). */
    class AddrMapper
    {
      public:
        virtual ~AddrMapper() = default;
        virtual PhysAddr mapEntryAddr(PhysAddr pa) = 0;
    };

    PageWalker(const PageTable &pt, MemoryHierarchy &mem,
               PageWalkCaches &pwc, PrefetchHook *hook = nullptr,
               AddrMapper *mapper = nullptr);

    /**
     * Perform a full walk for @p va starting at absolute time @p now.
     * Faults (non-present entries) terminate the walk with fault=true;
     * ASAP prefetches still fire, accelerating fault detection
     * (Section 3.7.1).
     *
     * The out-parameter form is the hot path (one walk per TLB miss,
     * several per nested walk): it reuses the caller's result storage
     * instead of copying the per-level arrays around.
     */
    void walk(VirtAddr va, Cycles now, WalkResult &result);

    WalkResult
    walk(VirtAddr va, Cycles now)
    {
        WalkResult result;
        walk(va, now, result);
        return result;
    }

    PageWalkCaches &pwc() { return pwc_; }

    std::uint64_t walks() const { return walks_; }
    std::uint64_t faults() const { return faults_; }

  private:
    const PageTable &pt_;
    MemoryHierarchy &mem_;
    PageWalkCaches &pwc_;
    PrefetchHook *hook_;
    AddrMapper *mapper_;

    std::uint64_t walks_ = 0;
    std::uint64_t faults_ = 0;
};

} // namespace asap

#endif // ASAP_WALK_WALKER_HH
