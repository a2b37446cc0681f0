/**
 * @file
 * The three-level cache hierarchy plus main memory, with MSHR-style
 * completion tracking for ASAP prefetches.
 *
 * Latency model (paper Table 5): an access is served by the first level
 * that holds the line; the configured latency of that level is the total
 * service latency (L1 4, L2 12, LLC 40, DRAM 191 cycles). Fills propagate
 * into every level above the serving one (fill-on-miss, non-inclusive).
 *
 * ASAP prefetches (paper Section 3.4) re-use the normal access path but
 * additionally record a *completion time* for the fetched line. When the
 * page walker later demands that line, the access is merged with the
 * in-flight fill: it completes at max(now + L1 latency, prefetch done),
 * which is exactly the "only one access to the memory hierarchy is
 * exposed" behaviour of the paper.
 *
 * The in-flight records live in a fixed-capacity MSHR array sized by
 * prefetchMshrs — mirroring the modeled hardware, which also has
 * exactly that many slots. At 16 entries a branch-predictable linear
 * scan beats any hashing, completed slots are retired in the same pass
 * that looks for a free one, and the common demand-access case (nothing
 * in flight, or no prefetch targeting the line) stays a short loop over
 * one or two cache lines of slot state.
 */

#ifndef ASAP_MEM_HIERARCHY_HH
#define ASAP_MEM_HIERARCHY_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/mem_level.hh"
#include "common/types.hh"
#include "mem/cache.hh"
#include "obs/trace_sink.hh"

namespace asap
{

/** Result of one memory-hierarchy access. */
struct AccessResult
{
    MemLevel servedBy = MemLevel::Dram;  ///< level the line was found in
    Cycles latency = 0;                  ///< exposed latency of this access
};

/** Configuration of the full hierarchy (defaults = paper Table 5). */
struct HierarchyConfig
{
    CacheConfig l1d{"L1-D", 32_KiB, 8, 4};
    CacheConfig l2{"L2", 256_KiB, 8, 12};
    CacheConfig llc{"LLC", 20_MiB, 20, 40};
    Cycles memLatency = 191;
    /** Max outstanding tracked prefetches (L1-D MSHR budget, Section 3.4
     *  "prefetches are best-effort, not issued if an MSHR is unavailable").
     */
    unsigned prefetchMshrs = 16;
};

/**
 * L1-D + L2 + LLC + DRAM, shared by the core's data accesses, the page
 * walker, the co-runner and ASAP prefetches.
 */
class MemoryHierarchy
{
  public:
    /**
     * @p sharedLlc — when non-null, this hierarchy's L3 is the given
     * externally-owned cache instead of a private one: the multi-core
     * model gives every core private L1/L2/MSHRs over one shared LLC.
     * Null (the default) keeps the hierarchy self-contained and
     * bit-identical to the single-core model.
     */
    explicit MemoryHierarchy(const HierarchyConfig &config = {},
                             Cache *sharedLlc = nullptr);

    /**
     * Demand access at simulated time @p now.
     *
     * If an ASAP prefetch to the same line is still in flight, the access
     * is merged with it (MSHR hit) and the exposed latency is the
     * remaining fill time (but at least the L1 hit latency).
     */
    AccessResult
    access(PhysAddr paddr, Cycles now)
    {
        const std::uint64_t line = lineOf(paddr) + lineBias_;
        AccessResult res = lookupAndFill(line);
        // Common no-merge path: a short predictable scan over the
        // (≤16-slot) MSHR file, skipped when nothing is in flight.
        for (unsigned i = 0; i < inflightCount_; ++i) {
            if (mshrs_[i].line != line)
                continue;
            if (mshrs_[i].readyAt > now) {
                // Merge with the in-flight prefetch: the walker waits
                // only for the remaining fill time (at least an L1 hit).
                res.latency = mshrs_[i].readyAt - now;
                if (res.latency < config_.l1d.latency)
                    res.latency = config_.l1d.latency;
                ++prefetchMerges_;
                if (sink_)
                    sink_->prefetchMerge(now, line << lineShift,
                                         res.latency);
            }
            releaseMshr(i);
            break;
        }
        return res;
    }

    /**
     * Access that does not account for prefetch overlap — used by data
     * accesses and the co-runner, which only exert cache pressure.
     */
    AccessResult
    accessPlain(PhysAddr paddr)
    {
        return lookupAndFill(lineOf(paddr) + lineBias_);
    }

    /**
     * Issue a best-effort prefetch for the line containing @p paddr at
     * time @p now (paper Section 3.4). Fills the hierarchy and records
     * the completion time so a later demand access can overlap with it.
     *
     * @return true if the prefetch was issued (MSHR available and the
     *         line was not already in L1-D).
     */
    bool
    prefetch(PhysAddr paddr, Cycles now)
    {
        const std::uint64_t line = lineOf(paddr) + lineBias_;
        // Already resident in L1-D: nothing to do (and nothing gained).
        if (l1d_.probe(line))
            return false;
        // One pass over the file: retire completed fills, spot dupes.
        bool duplicate = false;
        for (unsigned i = 0; i < inflightCount_;) {
            if (mshrs_[i].readyAt <= now) {
                releaseMshr(i);
                continue;   // the swapped-in slot re-examines index i
            }
            duplicate |= mshrs_[i].line == line;
            ++i;
        }
        if (inflightCount_ >= config_.prefetchMshrs) {
            ++prefetchesDropped_;   // best-effort: no MSHR available
            return false;
        }
        if (duplicate)
            return false;           // duplicate in-flight prefetch
        const AccessResult res = lookupAndFill(line);
        mshrs_[inflightCount_++] = {line, now + res.latency};
        if (inflightCount_ > inflightHighWater_)
            inflightHighWater_ = inflightCount_;
        ++prefetchesIssued_;
        if (sink_)
            sink_->prefetchFill(now, now + res.latency,
                                line << lineShift);
        return true;
    }

    /**
     * Physical-line bias added to every line this hierarchy touches —
     * how the multi-core model maps N tenants' overlapping physical
     * address spaces into one shared LLC without collisions. Bias 0
     * (the default, and always tenant 0's value) leaves every line,
     * tag and set index bit-identical to the unbiased hierarchy.
     * In-flight MSHR records keep the bias they were issued under, so
     * cross-tenant lines can never falsely merge.
     */
    void setLineBias(std::uint64_t bias) { lineBias_ = bias; }

    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }
    const Cache &llc() const { return *llc_; }
    const HierarchyConfig &config() const { return config_; }

    std::uint64_t prefetchesIssued() const { return prefetchesIssued_; }
    std::uint64_t prefetchesDropped() const { return prefetchesDropped_; }
    std::uint64_t prefetchMerges() const { return prefetchMerges_; }

    /** Currently occupied MSHR slots (tests/diagnostics). */
    unsigned inflightPrefetches() const { return inflightCount_; }

    /** Most MSHR slots ever occupied at once over this hierarchy's
     *  lifetime (occupancy gauge). */
    unsigned inflightHighWater() const { return inflightHighWater_; }

    /** Attach (or detach, with nullptr) a walk-event trace sink. */
    void setTraceSink(obs::TraceSink *sink) { sink_ = sink; }

  private:
    /** One MSHR slot: an in-flight prefetch fill. */
    struct Mshr
    {
        std::uint64_t line = 0;
        Cycles readyAt = 0;
    };

    /**
     * Find the serving level, update LRU there, and fill levels above.
     * Fill-on-miss, non-inclusive: each level that misses installs the
     * line as part of the same set scan (Cache::accessAndFill), so a
     * DRAM-served access costs three scans instead of six.
     */
    AccessResult
    lookupAndFill(PhysAddr line)
    {
        if (l1d_.accessAndFill(line))
            return {MemLevel::L1D, config_.l1d.latency};
        if (l2_.accessAndFill(line))
            return {MemLevel::L2, config_.l2.latency};
        if (llc_->accessAndFill(line))
            return {MemLevel::Llc, config_.llc.latency};
        return {MemLevel::Dram, config_.memLatency};
    }

    /** Drop slot @p index; live slots stay packed in a prefix. */
    void
    releaseMshr(unsigned index)
    {
        mshrs_[index] = mshrs_[--inflightCount_];
    }

    HierarchyConfig config_;
    Cache l1d_;
    Cache l2_;
    /** Private LLC storage; empty when an external one is shared. */
    std::optional<Cache> llcOwned_;
    /** The LLC in use: &*llcOwned_, or the shared external cache. */
    Cache *llc_ = nullptr;
    /** Tenant line-coloring bias (see setLineBias). */
    std::uint64_t lineBias_ = 0;

    /** The MSHR file: live slots are mshrs_[0 .. inflightCount_). */
    std::vector<Mshr> mshrs_;
    unsigned inflightCount_ = 0;
    unsigned inflightHighWater_ = 0;

    std::uint64_t prefetchesIssued_ = 0;
    std::uint64_t prefetchesDropped_ = 0;
    std::uint64_t prefetchMerges_ = 0;

    obs::TraceSink *sink_ = nullptr;
};

} // namespace asap

#endif // ASAP_MEM_HIERARCHY_HH
