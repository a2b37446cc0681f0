#include "os/pt_allocators.hh"

#include <algorithm>

#include "common/logging.hh"

namespace asap
{

AsapPtAllocator::AsapPtAllocator(BuddyAllocator &buddy,
                                 std::vector<unsigned> targetLevels)
    : buddy_(buddy), targetLevels_(std::move(targetLevels))
{
    for (const unsigned level : targetLevels_)
        fatal_if(level < 1 || level > 4, "bad ASAP target level %u", level);
    unsigned maxLevel = 0;
    for (const unsigned level : targetLevels_)
        maxLevel = std::max(maxLevel, level);
    regionsByLevel_.resize(maxLevel + 1);
}

bool
AsapPtAllocator::isTargetLevel(unsigned level) const
{
    return std::find(targetLevels_.begin(), targetLevels_.end(), level) !=
           targetLevels_.end();
}

void
AsapPtAllocator::setHoleFraction(double fraction, std::uint64_t seed)
{
    fatal_if(fraction < 0.0 || fraction > 1.0, "bad hole fraction %f",
             fraction);
    holeFraction_ = fraction;
    holeSeed_ = seed;
}

bool
AsapPtAllocator::isHoleSlot(const Region &region, std::uint64_t slot) const
{
    if (holeFraction_ <= 0.0)
        return false;
    // Deterministic per-slot decision so that repeated queries agree.
    const std::uint64_t h =
        mix64(holeSeed_ ^ (region.vmaId << 40) ^
              (static_cast<std::uint64_t>(region.level) << 32) ^ slot);
    return static_cast<double>(h >> 11) * 0x1.0p-53 < holeFraction_;
}

void
AsapPtAllocator::onVmaCreated(const Vma &vma)
{
    if (!vma.prefetchable)
        return;
    // Reserve deeper-level regions *last*: the PL1 region is the one
    // that grows with the VMA, so it should not be boxed in by the
    // (tiny, rarely-growing) PL2 region.
    std::vector<unsigned> order(targetLevels_);
    std::sort(order.begin(), order.end(), std::greater<>());
    for (const unsigned level : order) {
        const std::uint64_t span = nodeSpan(level);
        Region region;
        region.vmaId = vma.id;
        region.level = level;
        region.vaBase = alignDown(vma.start, span);
        region.vaEnd = alignUp(vma.end, span);
        region.slots = (region.vaEnd - region.vaBase) / span;
        region.basePfn = buddy_.reserveContiguous(region.slots);
        if (region.basePfn == invalidPfn) {
            ++failedReservations_;
            region.backedSlots = 0;
        } else {
            region.backedSlots = region.slots;
            reservedFrames_ += region.slots;
        }
        regionsByLevel_[level].emplace(region.vaBase, region);
    }
}

void
AsapPtAllocator::onVmaGrown(const Vma &vma, VirtAddr,
                            FrameRelocator *relocator)
{
    if (!vma.prefetchable)
        return;
    for (const unsigned level : targetLevels_) {
        const std::uint64_t span = nodeSpan(level);
        auto &regions = regionsByLevel_[level];
        // Find this VMA's region (keyed by aligned start).
        auto it = regions.find(alignDown(vma.start, span));
        if (it == regions.end())
            continue;
        Region &region = it->second;
        const VirtAddr newEnd = alignUp(vma.end, span);
        if (newEnd <= region.vaEnd)
            continue;               // growth absorbed by alignment slack
        const std::uint64_t extraSlots = (newEnd - region.vaEnd) / span;
        region.vaEnd = newEnd;
        region.slots += extraSlots;
        if (!region.valid()) {
            // Never had a region; the new slots are buddy-served anyway.
            continue;
        }
        // Try to extend the physical run in place. Each extension frame
        // is grabbed the moment it is (or becomes) free, so pages
        // relocated out of the range cannot be re-allocated back into
        // it (background compaction, Section 3.7.2).
        const Pfn extStart = region.basePfn + region.backedSlots;
        std::uint64_t grabbed = 0;
        bool ok = extStart + extraSlots <= buddy_.totalFrames();
        std::uint64_t pendingRelocations = 0;
        for (std::uint64_t i = 0; i < extraSlots && ok; ++i) {
            const Pfn f = extStart + i;
            if (buddy_.isFree(f)) {
                ok = buddy_.reserveRange(f, 1);
            } else if (relocator && relocator->relocateFrame(f)) {
                ++pendingRelocations;
                ok = buddy_.reserveRange(f, 1);
            } else {
                ok = false;
            }
            if (ok)
                ++grabbed;
        }
        if (ok) {
            region.backedSlots += extraSlots;
            reservedFrames_ += extraSlots;
            relocated_ += pendingRelocations;
        } else {
            // Roll back partial grabs; the grown slots become holes:
            // their PT nodes will come from the buddy allocator and
            // walks to them are not accelerated.
            for (std::uint64_t i = 0; i < grabbed; ++i)
                buddy_.freeRange(extStart + i, 1);
            growthHoles_ += extraSlots;
        }
    }
}

void
AsapPtAllocator::onVmaRemoved(const Vma &vma)
{
    if (!vma.prefetchable)
        return;
    for (const unsigned level : targetLevels_) {
        auto &regions = regionsByLevel_[level];
        auto it = regions.find(alignDown(vma.start, nodeSpan(level)));
        if (it == regions.end() || it->second.vmaId != vma.id)
            continue;
        Region &region = it->second;
        if (region.valid() && region.backedSlots > 0) {
            // The caller prunes the VMA's PT nodes first, so every
            // handed-out region frame has come back through
            // freeNodeFrame (which leaves region frames reserved in the
            // buddy). A frame still outstanding means a node outside
            // the prune survived — with 1GiB-aligned VMAs that cannot
            // happen for PL1/PL2 regions; leave the run reserved rather
            // than free live frames.
            bool outstanding = false;
            for (std::uint64_t slot = 0;
                 slot < region.backedSlots && !outstanding; ++slot) {
                outstanding = regionFrames_.count(region.basePfn + slot);
            }
            if (outstanding) {
                warn("ASAP region of VMA %lu still has live PT nodes; "
                     "leaking its reservation",
                     static_cast<unsigned long>(vma.id));
            } else {
                buddy_.freeRange(region.basePfn, region.backedSlots);
                releasedFrames_ += region.backedSlots;
                reservedFrames_ -= region.backedSlots;
            }
        }
        regions.erase(it);
        ++regionsReleased_;
    }
}

AsapPtAllocator::Region *
AsapPtAllocator::findRegion(VirtAddr va, unsigned level)
{
    if (level >= regionsByLevel_.size())
        return nullptr;
    auto &regions = regionsByLevel_[level];
    auto it = regions.upper_bound(va);
    if (it == regions.begin())
        return nullptr;
    --it;
    Region &region = it->second;
    return (va >= region.vaBase && va < region.vaEnd) ? &region : nullptr;
}

const AsapPtAllocator::Region *
AsapPtAllocator::findRegion(VirtAddr va, unsigned level) const
{
    return const_cast<AsapPtAllocator *>(this)->findRegion(va, level);
}

const AsapPtAllocator::Region *
AsapPtAllocator::regionFor(VirtAddr va, unsigned level) const
{
    const Region *region = findRegion(va, level);
    return (region && region->valid()) ? region : nullptr;
}

std::vector<const AsapPtAllocator::Region *>
AsapPtAllocator::regions() const
{
    std::vector<const Region *> out;
    for (const auto &perLevel : regionsByLevel_) {
        for (const auto &kv : perLevel)
            out.push_back(&kv.second);
    }
    return out;
}

bool
AsapPtAllocator::slotBacked(VirtAddr va, unsigned level) const
{
    const Region *region = findRegion(va, level);
    if (!region || !region->valid())
        return false;
    const std::uint64_t slot = region->slotOf(va);
    return slot < region->backedSlots && !isHoleSlot(*region, slot);
}

Pfn
AsapPtAllocator::allocNodeFrame(unsigned level, VirtAddr va)
{
    if (isTargetLevel(level)) {
        Region *region = findRegion(va, level);
        if (region && region->valid()) {
            const std::uint64_t slot = region->slotOf(va);
            if (slot < region->backedSlots && !isHoleSlot(*region, slot)) {
                const Pfn pfn = region->basePfn + slot;
                regionFrames_.insert(pfn);
                ++region->usedSlots;
                ++regionAllocs_;
                return pfn;
            }
        }
        ++fallbackAllocs_;
    }
    return buddy_.allocFrame();
}

void
AsapPtAllocator::freeNodeFrame(unsigned, Pfn pfn)
{
    // Region frames stay reserved until the VMA (and its region) dies;
    // only buddy-fallback frames go back to the buddy allocator.
    if (regionFrames_.erase(pfn))
        return;
    buddy_.freeFrame(pfn);
}

} // namespace asap
