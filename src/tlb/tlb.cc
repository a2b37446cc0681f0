#include "tlb/tlb.hh"

#include "common/logging.hh"

namespace asap
{

Tlb::Tlb(const TlbConfig &config) : config_(config)
{
    fatal_if(config_.ways == 0 || config_.entries % config_.ways != 0,
             "%s: bad associativity", config_.name);
    fatal_if(!isPow2(config_.numSets()),
             "%s: set count must be a power of two", config_.name);
    entries_.init(config_.numSets(), config_.ways);
}

void
Tlb::flushEntries()
{
    entries_.flush();
    for (auto &count : residentPerLevel_)
        count = 0;
}

std::uint64_t
Tlb::invalidateRange(VirtAddr start, VirtAddr end)
{
    return invalidateRangeKey(start, end, asidKey_);
}

std::uint64_t
Tlb::invalidateRangeAsid(VirtAddr start, VirtAddr end,
                         std::uint16_t asid)
{
    return invalidateRangeKey(
        start, end, static_cast<std::uint64_t>(asid) << asidShift);
}

std::uint64_t
Tlb::invalidateRangeKey(VirtAddr start, VirtAddr end,
                        std::uint64_t asidKey)
{
    constexpr std::uint64_t asidMask = ~((std::uint64_t{1} << asidShift) - 1);
    return entries_.invalidateWhere(
        [this, start, end, asidKey,
         asidMask](std::uint64_t key, const Payload &) {
            // Stored keys pack the leaf level into the low two bits
            // and the ASID into the high bits (see keyOf); only the
            // targeted address space is shot down.
            if ((key & asidMask) != asidKey)
                return false;
            const auto level = static_cast<unsigned>(key & 3);
            const VirtAddr base =
                ((key & ~asidMask) >> 2) << levelShift(level);
            const bool drop =
                base < end && base + levelSpan(level) > start;
            if (drop)
                --residentPerLevel_[level];
            return drop;
        });
}

ClusteredTlb::ClusteredTlb(const TlbConfig &config) : config_(config)
{
    fatal_if(config_.ways == 0 || config_.entries % config_.ways != 0,
             "%s: bad associativity", config_.name);
    fatal_if(!isPow2(config_.numSets()),
             "%s: set count must be a power of two", config_.name);
    entries_.init(config_.numSets(), config_.ways);
}

void
ClusteredTlb::fill(VirtAddr va, const Translation &translation,
                   const PageTable &pt)
{
    if (translation.leafLevel != 1)
        return;     // large pages are not clustered; handled elsewhere

    const Vpn vpn = vpnOf(va);
    const std::uint64_t tag = vpn >> clusterShift;
    const std::uint64_t ppnCluster = translation.pfn >> clusterShift;

    std::uint8_t validMask = 0;
    std::uint8_t offsets[clusterPages] = {};

    // All eight cluster PTEs live in one PL1 node (the cluster is
    // 8-page aligned, far smaller than a node's 512-entry span), so one
    // descent and a scan of adjacent entries replaces eight full
    // root-to-leaf walks.
    const VirtAddr clusterBase = (tag << clusterShift) << pageShift;
    const PtNode *node = pt.leafNodeOf(clusterBase);
    panic_if(!node, "clustered fill without a PL1 node for va %#lx", va);
    const unsigned baseSlot = levelIndex(clusterBase, 1);
    for (unsigned sub = 0; sub < clusterPages; ++sub) {
        const Pte entry = node->entries[baseSlot + sub];
        if (entry.present() &&
            (entry.pfn() >> clusterShift) == ppnCluster) {
            validMask |= static_cast<std::uint8_t>(1u << sub);
            offsets[sub] =
                static_cast<std::uint8_t>(entry.pfn() & (clusterPages - 1));
        }
    }
    panic_if(!(validMask & (1u << (vpn & (clusterPages - 1)))),
             "clustered fill lost the triggering page");

    // A VPN cluster whose frames straddle two physical clusters needs
    // two entries; replacing by tag alone would make the halves evict
    // each other on every miss. Merge only an exact (tag, physical
    // cluster) match; otherwise pick a normal LRU victim.
    const std::uint64_t set = entries_.setOf(tag);
    const auto slot = entries_.findOrVictimWhere(
        set, SetAssoc<Payload>::keyFor(tag),
        [ppnCluster](const Payload &p) {
            return p.ppnClusterBase == ppnCluster;
        });
    *slot.way.key = SetAssoc<Payload>::keyFor(tag);
    slot.way.payload->ppnClusterBase = ppnCluster;
    slot.way.payload->validMask = validMask;
    for (unsigned sub = 0; sub < clusterPages; ++sub)
        slot.way.payload->offsets[sub] = offsets[sub];
    entries_.touch(set, slot.way);
}

std::uint64_t
ClusteredTlb::invalidateRange(VirtAddr start, VirtAddr end)
{
    constexpr std::uint64_t clusterSpan = clusterPages * pageSize;
    return entries_.invalidateWhere(
        [start, end](std::uint64_t key, const Payload &) {
            // Keys are keyFor-biased cluster tags (vpn >> clusterShift).
            const std::uint64_t tag = key - 1;
            const VirtAddr base = (tag << clusterShift) << pageShift;
            return base < end && base + clusterSpan > start;
        });
}

TlbHierarchy::TlbHierarchy(const Config &config)
    : config_(config), l1_(config.l1)
{
    if (config_.clusteredL2)
        clustered_.emplace(config_.l2);
    else
        l2_.emplace(config_.l2);
}

void
TlbHierarchy::fill(VirtAddr va, const Translation &translation,
                   const PageTable *pt)
{
    l1_.fill(va, translation);
    if (clustered_) {
        panic_if(!pt, "clustered L2 fill requires the page table");
        if (translation.leafLevel == 1)
            clustered_->fill(va, translation, *pt);
        // Large-page translations live only in L1 for the clustered
        // configuration (native 4KB studies never hit this path).
    } else {
        l2_->fill(va, translation);
    }
}

void
TlbHierarchy::flushEntries()
{
    l1_.flushEntries();
    if (clustered_)
        clustered_->flushEntries();
    else
        l2_->flushEntries();
}

void
TlbHierarchy::setAsid(std::uint16_t asid)
{
    fatal_if(clustered_ && asid != 0,
             "clustered L2 TLB entries are untagged; PCID-style "
             "multi-tenant sharing is unsupported");
    l1_.setAsid(asid);
    if (l2_)
        l2_->setAsid(asid);
}

std::uint64_t
TlbHierarchy::invalidateRangeAsid(VirtAddr start, VirtAddr end,
                                  std::uint16_t asid)
{
    std::uint64_t dropped = l1_.invalidateRangeAsid(start, end, asid);
    if (clustered_)
        dropped += clustered_->invalidateRange(start, end);
    else
        dropped += l2_->invalidateRangeAsid(start, end, asid);
    return dropped;
}

std::uint64_t
TlbHierarchy::invalidateRange(VirtAddr start, VirtAddr end)
{
    std::uint64_t dropped = l1_.invalidateRange(start, end);
    if (clustered_)
        dropped += clustered_->invalidateRange(start, end);
    else
        dropped += l2_->invalidateRange(start, end);
    return dropped;
}

} // namespace asap
