/**
 * @file
 * Set-associative TLB supporting mixed 4KB/2MB/1GB translations.
 *
 * Paper Table 5 geometry: L1 I/D-TLB 64 entries 8-way; L2 S-TLB 1536
 * entries 6-way. The model indexes by the VPN of each page size and
 * probes every supported size on lookup (a unified TLB, conservative
 * versus real split designs but identical in miss behaviour for the
 * single-size working sets evaluated). Page sizes with no resident
 * entries are skipped — an empty size cannot hit, so the skip is
 * invisible to the model but removes two of the three probe loops for
 * the (dominant) single-size workloads.
 *
 * Lookup and fill run once per simulated memory access and are
 * header-inline; the per-size VPN and the leaf level are packed into
 * one 64-bit search key so a probe is a single-compare scan.
 */

#ifndef ASAP_TLB_TLB_HH
#define ASAP_TLB_TLB_HH

#include <cstdint>
#include <optional>

#include "common/logging.hh"
#include "common/set_assoc.hh"
#include "common/types.hh"
#include "pt/page_table.hh"

namespace asap
{

struct TlbConfig
{
    /** A string literal; read only by panic and fatal messages. */
    const char *name = "TLB";
    unsigned entries = 64;
    unsigned ways = 8;
    /** Leaf levels this TLB accepts (bit i set => level i+1 supported). */
    unsigned levelMask = 0b111;  ///< 4KB, 2MB and 1GB

    unsigned numSets() const { return entries / ways; }
};

/**
 * Plain set-associative, true-LRU TLB.
 */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &config);

    /** Look up @p va; updates recency on hit. */
    std::optional<Translation>
    lookup(VirtAddr va)
    {
        Translation t;
        if (lookup(va, t))
            return t;
        return std::nullopt;
    }

    /** Hot-path lookup: fills @p out on a hit, no optional temporary. */
    bool
    lookup(VirtAddr va, Translation &out)
    {
        for (unsigned level = 1; level <= 3; ++level) {
            // A page size with no resident entries cannot hit; skipping
            // it is invisible to the model. Single-size workloads (the
            // common case) probe exactly one size this way.
            if (residentPerLevel_[level] == 0)
                continue;
            const std::uint64_t tag = tagOf(va, level);
            const std::uint64_t set = entries_.setOf(tag);
            const auto way = entries_.find(set, keyOf(tag, level));
            if (way) {
                // Read before touch(), which moves the way.
                out.pfn = way.payload->pfn;
                out.leafLevel = level;
                // TLBs cache translations, not PTE locations (real
                // hardware has no such field either).
                out.pteAddr = 0;
                entries_.touch(set, way);
                ++hits_;
                return true;
            }
        }
        ++misses_;
        return false;
    }

    /** Insert a translation for @p va. */
    void
    fill(VirtAddr va, const Translation &translation)
    {
        const unsigned level = translation.leafLevel;
        panic_if(level < 1 || level > 3, "TLB fill with leaf level %u",
                 level);
        panic_if(!(config_.levelMask & (1u << (level - 1))),
                 "%s: fill with unsupported page size level %u",
                 config_.name, level);
        const std::uint64_t tag = tagOf(va, level);
        panic_if(asidKey_ != 0 && (tag >> (asidShift - 2)) != 0,
                 "%s: VA %#lx tag collides with ASID bits",
                 config_.name, va);
        const std::uint64_t set = entries_.setOf(tag);
        const auto slot = entries_.findOrVictim(set, keyOf(tag, level));
        if (!slot.matched) {
            if (slot.way.valid())
                --residentPerLevel_[*slot.way.key & 3];
            ++residentPerLevel_[level];
            *slot.way.key = keyOf(tag, level);
        }
        slot.way.payload->pfn = translation.pfn;
        entries_.touch(set, slot.way);
    }

    /**
     * Drop all cached entries but keep the hit/miss counters — the
     * CR3-reload (no-PCID context switch) flush of the multi-core
     * model, where counters are lifetime statistics of the structure
     * and must survive tenant switches.
     */
    void flushEntries();

    /**
     * Address-space tagging (PCID): entries filled after setAsid(@p
     * asid) match lookups only under the same ASID. ASID 0 (the
     * default) leaves every key bit-identical to the untagged TLB, so
     * the single-core path is unaffected.
     */
    void
    setAsid(std::uint16_t asid)
    {
        asidKey_ = static_cast<std::uint64_t>(asid) << asidShift;
    }

    /**
     * Targeted shootdown: drop every translation whose page overlaps
     * [@p start, @p end) — the INVLPG loop an OS issues on munmap /
     * madvise(DONTNEED) (dyn subsystem), instead of a full flush.
     * Only entries of the *current* ASID are dropped (an OS invalidates
     * its own mappings). Off the hot path (full scan).
     * @return entries dropped.
     */
    std::uint64_t invalidateRange(VirtAddr start, VirtAddr end);

    /**
     * Remote-shootdown variant: drop overlapping entries tagged with
     * @p asid, regardless of the ASID currently loaded — the IPI
     * handler on a remote core invalidates the *initiator's* address
     * space while some other tenant is running.
     */
    std::uint64_t
    invalidateRangeAsid(VirtAddr start, VirtAddr end, std::uint16_t asid);

    const TlbConfig &config() const { return config_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    /** Currently valid entries (occupancy gauge; off the hot path). */
    std::uint64_t validEntries() const { return entries_.validCount(); }

  private:
    /** Per-way state beyond the search key: just the frame (16-byte
     *  ways keep a 6-way STLB set at 1.5 host cache lines). */
    struct Payload
    {
        Pfn pfn;
    };

    /** Bit position of the ASID tag within a stored key. User-space
     *  VPN tags shifted by 2 stay below 2^40 for any canonical
     *  address, so ASID bits at 48+ can never collide with them (the
     *  fill path asserts this). */
    static constexpr unsigned asidShift = 48;

    std::uint64_t tagOf(VirtAddr va, unsigned level) const
    { return va >> levelShift(level); }

    /** Search key: the size-specific VPN with the leaf level packed
     *  into the low bits, so one 64-bit compare matches both, plus the
     *  current ASID in the high bits (0 unless setAsid() was used).
     *  The level bits (1..3) keep the key non-zero; recovering the
     *  level of a stored key is (key & 3). */
    std::uint64_t keyOf(std::uint64_t tag, unsigned level) const
    { return (tag << 2) | level | asidKey_; }

    /** invalidateRange / invalidateRangeAsid implementation. */
    std::uint64_t
    invalidateRangeKey(VirtAddr start, VirtAddr end,
                       std::uint64_t asidKey);

    TlbConfig config_;
    SetAssoc<Payload> entries_;
    /** Current ASID, pre-shifted for keyOf (0 = untagged). */
    std::uint64_t asidKey_ = 0;
    /** Resident entries per leaf level (lookup skips empty sizes). */
    std::uint32_t residentPerLevel_[4] = {0, 0, 0, 0};
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * Clustered TLB (Pham et al., HPCA 2014) — the coalescing baseline of
 * paper Section 5.4.1. Each entry covers an aligned cluster of 8
 * virtually-consecutive 4KB pages whose physical frames fall within one
 * aligned cluster of 8 frames (arbitrary permutation within the cluster).
 * On a fill, the eight PTEs of the cluster are read from the shared PL1
 * page-table node and coalesced opportunistically.
 */
class ClusteredTlb
{
  public:
    static constexpr unsigned clusterPages = 8;
    static constexpr unsigned clusterShift = 3;

    ClusteredTlb(const TlbConfig &config);

    std::optional<Translation>
    lookup(VirtAddr va)
    {
        Translation t;
        if (lookup(va, t))
            return t;
        return std::nullopt;
    }

    /** Hot-path lookup: fills @p out on a hit, no optional temporary. */
    bool
    lookup(VirtAddr va, Translation &out)
    {
        const Vpn vpn = vpnOf(va);
        const std::uint64_t tag = vpn >> clusterShift;
        const unsigned sub =
            static_cast<unsigned>(vpn & (clusterPages - 1));
        const std::uint64_t set = entries_.setOf(tag);
        const auto way = entries_.findWhere(
            set, SetAssoc<Payload>::keyFor(tag), [sub](const Payload &p) {
                return (p.validMask & (1u << sub)) != 0;
            });
        if (way) {
            // Read before touch(), which moves the way.
            out.leafLevel = 1;
            out.pfn = (way.payload->ppnClusterBase << clusterShift) |
                      way.payload->offsets[sub];
            out.pteAddr = 0;
            entries_.touch(set, way);
            ++hits_;
            return true;
        }
        ++misses_;
        return false;
    }

    /**
     * Fill with the translation for @p va, probing @p pt for coalescible
     * neighbours in the same VPN cluster.
     */
    void fill(VirtAddr va, const Translation &translation,
              const PageTable &pt);

    /** Drop all entries, keep counters (multi-core context switch). */
    void flushEntries() { entries_.flush(); }

    /** Targeted shootdown: drop every entry whose 8-page cluster
     *  overlaps [@p start, @p end). Dropping the whole cluster entry
     *  (rather than clearing sub-page bits) mirrors hardware, where
     *  INVLPG invalidates the covering coalesced entry. */
    std::uint64_t invalidateRange(VirtAddr start, VirtAddr end);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    /** Currently valid entries (occupancy gauge; off the hot path). */
    std::uint64_t validEntries() const { return entries_.validCount(); }

  private:
    /** Per-way state beyond the cluster tag (the search key). */
    struct Payload
    {
        std::uint64_t ppnClusterBase;    ///< PPN >> clusterShift
        std::uint8_t validMask;          ///< per-sub-page presence
        std::uint8_t offsets[clusterPages]; ///< PPN low 3 bits
    };

    TlbConfig config_;
    SetAssoc<Payload> entries_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/** Which structure provided a TLB hit. */
enum class TlbHitLevel : unsigned
{
    L1 = 0,
    L2,
    Miss
};

/**
 * Two-level TLB system (L1 + L2), optionally with a Clustered L2.
 *
 * MPKI accounting is done at the L2 boundary (a page walk happens iff
 * both levels miss).
 */
class TlbHierarchy
{
  public:
    struct Config
    {
        TlbConfig l1{"L1-DTLB", 64, 8};
        TlbConfig l2{"L2-STLB", 1536, 6};
        bool clusteredL2 = false;
    };

    explicit TlbHierarchy(const Config &config);

    struct Result
    {
        TlbHitLevel level = TlbHitLevel::Miss;
        Translation translation;

        bool hit() const { return level != TlbHitLevel::Miss; }
    };

    /** Probe L1 then L2; L2 hits are promoted into L1. */
    Result
    lookup(VirtAddr va)
    {
        ++lookups_;
        Result res;
        if (l1_.lookup(va, res.translation)) {
            res.level = TlbHitLevel::L1;
            return res;
        }
        const bool l2Hit = clustered_
                               ? clustered_->lookup(va, res.translation)
                               : l2_->lookup(va, res.translation);
        if (l2Hit) {
            l1_.fill(va, res.translation);
            res.level = TlbHitLevel::L2;
            return res;
        }
        res.level = TlbHitLevel::Miss;
        return res;
    }

    /**
     * Install a walk result into both levels. @p pt enables cluster
     * probing when the clustered L2 is configured.
     */
    void fill(VirtAddr va, const Translation &translation,
              const PageTable *pt = nullptr);

    /** Drop all entries across both levels but keep every counter —
     *  the no-PCID context-switch flush (multi-core model). */
    void flushEntries();

    /**
     * Switch both levels to @p asid (PCID semantics): subsequent fills
     * are tagged, lookups match only the current tag. ASID 0 keeps
     * keys bit-identical to the untagged hierarchy. The clustered L2
     * stores untagged cluster keys, so nonzero ASIDs are rejected
     * there (the multi-core model refuses clustered configs with more
     * than one tenant).
     */
    void setAsid(std::uint16_t asid);

    /** Targeted shootdown of [@p start, @p end) across both levels.
     *  @return total entries dropped. */
    std::uint64_t invalidateRange(VirtAddr start, VirtAddr end);

    /** Remote-shootdown variant: drop only entries tagged @p asid
     *  (see Tlb::invalidateRangeAsid). */
    std::uint64_t
    invalidateRangeAsid(VirtAddr start, VirtAddr end, std::uint16_t asid);

    std::uint64_t l1Misses() const { return l1_.misses(); }
    std::uint64_t l2Misses() const
    { return clustered_ ? clustered_->misses() : l2_->misses(); }
    std::uint64_t lookups() const { return lookups_; }

    /** Occupancy gauges (timeline valid-entry fractions). */
    std::uint64_t l1ValidEntries() const { return l1_.validEntries(); }
    std::uint64_t l2ValidEntries() const
    {
        return clustered_ ? clustered_->validEntries()
                          : l2_->validEntries();
    }
    unsigned l1Entries() const { return config_.l1.entries; }
    unsigned l2Entries() const { return config_.l2.entries; }

  private:
    Config config_;
    Tlb l1_;
    std::optional<Tlb> l2_;
    std::optional<ClusteredTlb> clustered_;
    std::uint64_t lookups_ = 0;
};

} // namespace asap

#endif // ASAP_TLB_TLB_HH
