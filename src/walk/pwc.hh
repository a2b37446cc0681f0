/**
 * @file
 * Page Walk Caches: the split per-level translation caches of modern
 * x86 MMUs (paper Table 5, after Bhattacharjee MICRO'13).
 *
 * An entry in the level-L cache holds the *contents* of a level-L PT
 * entry, i.e. a pointer to the node at level L-1, tagged by the VA bits
 * that select that entry (va >> levelShift(L)). A hit in the level-2
 * cache therefore lets the walker skip straight to the PL1 access.
 *
 * Alongside the architectural child pfn, each entry carries the child
 * node's slab index (see pt/page_table.hh) so the walker can resume the
 * pointer-chased descent without a pfn -> node hash lookup. This is
 * simulator bookkeeping, not modeled hardware state: it changes no
 * latency and no replacement decision.
 *
 * Default geometry (Intel Core i7-like): PL4 2 entries fully assoc.,
 * PL3 4 entries fully assoc., PL2 32 entries 4-way, 2-cycle access.
 * PL1 entries are never cached here — they go to the TLBs.
 */

#ifndef ASAP_WALK_PWC_HH
#define ASAP_WALK_PWC_HH

#include <cstdint>

#include "common/set_assoc.hh"
#include "common/types.hh"
#include "pt/page_table.hh"

namespace asap
{

struct PwcConfig
{
    Cycles latency = 2;

    struct LevelGeometry
    {
        unsigned entries = 0;  ///< 0 = no cache for this level
        unsigned ways = 0;     ///< 0 = fully associative
    };

    /** Geometry per PT level; index 2..5 used ([0],[1] unused). */
    LevelGeometry level[6] = {
        {},             // unused
        {},             // PL1: never cached in PWCs
        {32, 4},        // PL2
        {4, 0},         // PL3
        {2, 0},         // PL4
        {2, 0},         // PL5 (used only with 5-level tables)
    };

    /** Multiply every capacity by @p factor (the PWC-size ablation). */
    PwcConfig
    scaled(unsigned factor) const
    {
        PwcConfig out = *this;
        for (auto &geometry : out.level)
            geometry.entries *= factor;
        return out;
    }
};

/**
 * The ensemble of per-level walk caches.
 */
class PageWalkCaches
{
  public:
    explicit PageWalkCaches(const PwcConfig &config = {},
                            unsigned ptLevels = numPtLevels);

    struct Hit
    {
        unsigned level = 0;   ///< level of the cached entry (0 = miss)
        Pfn childPfn = invalidPfn;  ///< node the walker continues from
        /** Slab index of that node (pt/page_table.hh). */
        PtNodeIndex childIndex = invalidPtNodeIndex;

        bool valid() const { return level != 0; }
    };

    /**
     * Find the deepest cached entry covering @p va. A hit at level L
     * means the walker can continue directly at level L-1.
     */
    Hit lookupDeepest(VirtAddr va);

    /** Cache the level-@p level entry for @p va (child node @p pfn,
     *  living at @p childIndex in its table's slab). */
    void insert(unsigned level, VirtAddr va, Pfn childPfn,
                PtNodeIndex childIndex = invalidPtNodeIndex);

    /** Drop all cached entries but keep the hit/lookup counters —
     *  the CR3-reload flush of the multi-core model, where the PWC is
     *  per-core hardware and its counters are lifetime statistics. */
    void flushEntries();

    /**
     * Targeted shootdown: drop every cached entry whose covered VA span
     * overlaps [@p start, @p end). Required on munmap/madvise (dyn
     * subsystem): a level-L entry points at (and caches the slab index
     * of) the child node covering levelSpan(L) bytes, which PT pruning
     * may have freed. @return entries dropped across all levels.
     */
    std::uint64_t invalidateRange(VirtAddr start, VirtAddr end);

    Cycles latency() const { return config_.latency; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t lookups() const { return lookups_; }

    /** Currently valid entries across all level caches (occupancy
     *  gauge; off the hot path). */
    std::uint64_t
    validEntries() const
    {
        std::uint64_t valid = 0;
        for (const auto &cache : caches_)
            valid += cache.validCount();
        return valid;
    }

    /** Total configured capacity of the instantiated level caches —
     *  the denominator of the valid-entry fraction. */
    std::uint64_t
    capacityEntries() const
    {
        std::uint64_t capacity = 0;
        for (unsigned level = 2; level < 6; ++level) {
            if (!caches_[level].empty())
                capacity += config_.level[level].entries;
        }
        return capacity;
    }

  private:
    /** Per-way state beyond the VA tag. */
    struct Payload
    {
        Pfn childPfn = invalidPfn;
        PtNodeIndex childIndex = invalidPtNodeIndex;
    };

    static std::uint64_t
    tagOf(VirtAddr va, unsigned level)
    {
        return va >> levelShift(level);
    }

    PwcConfig config_;
    unsigned ptLevels_;
    SetAssoc<Payload> caches_[6];
    std::uint64_t hits_ = 0;
    std::uint64_t lookups_ = 0;
};

} // namespace asap

#endif // ASAP_WALK_PWC_HH
