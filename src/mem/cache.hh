/**
 * @file
 * A functional set-associative cache with true-LRU replacement.
 *
 * The reproduction follows the paper's methodology (Section 4): the memory
 * hierarchy is modeled *functionally* — each access resolves to the first
 * level holding the line and latencies along a page walk are summed. The
 * cache therefore tracks only tags, not data, and charges a fixed hit
 * latency configured per level (Table 5).
 *
 * The cache is tag-only state in a SetAssoc with no payload (a way is
 * its 8-byte key, so a 20-way LLC set is 160 bytes of keys in recency
 * order), and every operation is header-inline: these scans are the
 * single hottest loops of the whole simulator (every data access,
 * co-runner access, walk step and prefetch ends up here).
 */

#ifndef ASAP_MEM_CACHE_HH
#define ASAP_MEM_CACHE_HH

#include <cstdint>

#include "common/set_assoc.hh"
#include "common/types.hh"

namespace asap
{

/** Geometry + latency of one cache level. */
struct CacheConfig
{
    /** A string literal; read only by panic and fatal messages. */
    const char *name = "cache";
    std::uint64_t sizeBytes = 32_KiB;
    unsigned ways = 8;
    Cycles latency = 4;         ///< total load-to-use latency on a hit here
    unsigned lineShift = asap::lineShift;

    std::uint64_t numLines() const { return sizeBytes >> lineShift; }
    std::uint64_t numSets() const { return numLines() / ways; }
};

/**
 * Tag-only set-associative cache, true-LRU, fill-on-access.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Look up a physical address and make its line the most recently
     * used, installing it on a miss (into the first invalid way, else
     * the LRU way): the fill-on-miss step of the hierarchy's cascade,
     * in one set scan.
     * @return true on hit.
     */
    bool
    accessAndFill(PhysAddr paddr)
    {
        const std::uint64_t tag = tagOf(paddr);
        const std::uint64_t set = ways_.setOf(tag);
        const auto slot = ways_.findOrVictim(set, SetAssoc<>::keyFor(tag));
        if (slot.matched) {
            ways_.touch(set, slot.way);
            ++hits_;
            return true;
        }
        ++misses_;
        *slot.way.key = SetAssoc<>::keyFor(tag);
        ways_.touch(set, slot.way);
        return false;
    }

    /** Look up without perturbing replacement state. */
    bool
    probe(PhysAddr paddr) const
    {
        const std::uint64_t tag = tagOf(paddr);
        return static_cast<bool>(
            ways_.find(ways_.setOf(tag), SetAssoc<>::keyFor(tag)));
    }

    const CacheConfig &config() const { return config_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    /** Raw line tag; set indexing uses this, the stored key is the
     *  biased keyFor(tag) (bias must never leak into the set index). */
    std::uint64_t tagOf(PhysAddr paddr) const
    { return paddr >> setShift_; }

    CacheConfig config_;
    unsigned setShift_;
    SetAssoc<> ways_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace asap

#endif // ASAP_MEM_CACHE_HH
