#include "os/address_space.hh"

#include <algorithm>

#include "common/logging.hh"

namespace asap
{

AddressSpace::AddressSpace(BuddyAllocator &frames,
                           PtNodeAllocator &ptAllocator,
                           const AddressSpaceConfig &config)
    : frames_(frames), config_(config), pt_(ptAllocator, config.ptLevels),
      reverseMap_(frames.totalFrames()), pinned_(frames.totalFrames()),
      pinRng_(config.seed), nextMmap_(config.mmapBase)
{
}

void
AddressSpace::addObserver(VmaObserver *observer)
{
    observers_.push_back(observer);
}

void
AddressSpace::notifyCreated(const Vma &vma)
{
    for (VmaObserver *observer : observers_)
        observer->onVmaCreated(vma);
}

VirtAddr
AddressSpace::pickMmapBase(std::uint64_t bytes)
{
    const VirtAddr base = nextMmap_;
    // 1GiB guard gap keeps VMAs apart even after growth.
    nextMmap_ = alignUp(base + bytes + 1_GiB, 1_GiB);
    return base;
}

std::uint64_t
AddressSpace::mmap(std::uint64_t bytes, const std::string &name,
                   bool prefetchable)
{
    bytes = alignUp(bytes, pageSize);
    return mmapAt(pickMmapBase(bytes), bytes, name, prefetchable);
}

std::uint64_t
AddressSpace::mmapAt(VirtAddr start, std::uint64_t bytes,
                     const std::string &name, bool prefetchable)
{
    bytes = alignUp(bytes, pageSize);
    const std::uint64_t id = vmas_.insert(start, start + bytes, name,
                                          prefetchable);
    notifyCreated(*vmas_.byId(id));
    return id;
}

bool
AddressSpace::extendVma(std::uint64_t id, std::uint64_t bytes)
{
    Vma *vma = vmas_.byId(id);
    panic_if(!vma, "extendVma: unknown VMA %lu", id);
    const VirtAddr oldEnd = vma->end;
    if (!vmas_.grow(id, alignUp(bytes, pageSize)))
        return false;
    for (VmaObserver *observer : observers_)
        observer->onVmaGrown(*vma, oldEnd, this);
    return true;
}

AddressSpace::UnmapCounts
AddressSpace::unmapRange(Vma &vma, VirtAddr start, VirtAddr end)
{
    panic_if((start | end) & pageOffsetMask,
             "unmapRange not page aligned: [%#lx, %#lx)", start, end);
    UnmapCounts counts;
    counts.start = start;
    counts.end = end;
    for (VirtAddr va = start; va < end;) {
        const auto t = pt_.lookup(va);
        if (!t) {
            va += pageSize;         // never touched
            continue;
        }
        if (t->leafLevel == 1) {
            const Pfn frame = t->pfn;
            pt_.unmap(va);
            reverseMap_[frame] = 0;
            pinned_[frame] = 0;
            frames_.freeFrame(frame);
            ++counts.dataPagesFreed;
            --vma.touchedPages;
            --touchedPages_;
            va += pageSize;
        } else {
            // 2MB leaf (host hugepage spaces): free the whole block —
            // partial teardown of a huge mapping is not modeled.
            const std::uint64_t span = levelSpan(t->leafLevel);
            panic_if(t->leafLevel != 2 || alignDown(va, span) < start ||
                         alignDown(va, span) + span > end,
                     "unmapRange through a partial huge mapping at %#lx",
                     va);
            const VirtAddr base = alignDown(va, span);
            pt_.unmap(base);
            frames_.freeBlock(t->pfn, levelBits);
            counts.dataPagesFreed += entriesPerNode;
            vma.touchedPages -= entriesPerNode;
            touchedPages_ -= entriesPerNode;
            va = base + span;
        }
    }
    counts.ptNodesFreed = pt_.pruneRange(start, end);
    return counts;
}

AddressSpace::UnmapCounts
AddressSpace::munmapVma(std::uint64_t id)
{
    Vma *vma = vmas_.byId(id);
    panic_if(!vma, "munmapVma: unknown VMA %lu", id);
    UnmapCounts counts = unmapRange(*vma, vma->start, vma->end);
    // Observers run after the prune: reserved ASAP regions can only
    // release their physical runs once no PT node occupies them.
    for (VmaObserver *observer : observers_)
        observer->onVmaRemoved(*vma);
    vmas_.remove(id);
    return counts;
}

AddressSpace::UnmapCounts
AddressSpace::madviseFree(VirtAddr start, std::uint64_t nPages)
{
    Vma *vma = vmas_.find(start);
    panic_if(!vma, "madviseFree outside any VMA: %#lx", start);
    const VirtAddr end = start + nPages * pageSize;
    panic_if(end > vma->end, "madviseFree past VMA end: [%#lx, %#lx)",
             start, end);
    return unmapRange(*vma, start, end);
}

AddressSpace::TouchResult
AddressSpace::touchRange(VirtAddr start, std::uint64_t pages)
{
    // As on hardware, a present page never faults: only a fault looks
    // up (and bounds-checks) its VMA, and one lookup serves every fault
    // up to that VMA's end.
    Vma *vma = nullptr;
    auto faultingVma = [&](VirtAddr va) -> Vma & {
        if (!vma || !vma->contains(va)) {
            vma = vmas_.find(va);
            panic_if(!vma, "touch outside any VMA: %#lx", va);
        }
        return *vma;
    };

    TouchResult result;
    if (!config_.hugePages) {
        // Demand allocation (Section 3.7.1).
        result.translation = pt_.populate(
            start, pages,
            [&](VirtAddr va) {
                Vma &owner = faultingVma(va);
                const Pfn frame = frames_.allocFrame();
                fatal_if(frame == invalidPfn,
                         "out of physical memory for %#lx", va);
                reverseMap_[frame] = alignDown(va, pageSize) + 1;
                if (config_.pinnedProb > 0.0 &&
                    pinRng_.chance(config_.pinnedProb)) {
                    pinned_[frame] = 1;
                }
                ++pageFaults_;
                ++owner.touchedPages;
                ++touchedPages_;
                return frame;
            },
            result.faulted);
        return result;
    }

    // 2MB pages: one fault maps the whole 2MB page, so each page first
    // checks whether an earlier one already did.
    for (std::uint64_t i = 0; i < pages; ++i) {
        const VirtAddr va = start + i * pageSize;
        std::optional<Translation> t = pt_.lookup(va);
        result.faulted = !t;
        if (!t) {
            Vma &owner = faultingVma(va);
            ++pageFaults_;
            const Pfn block = frames_.allocBlock(levelBits);
            fatal_if(block == invalidPfn,
                     "out of physical memory (2MB page for %#lx)", va);
            pt_.map(alignDown(va, levelSpan(2)), block, /*leafLevel=*/2);
            owner.touchedPages += entriesPerNode;
            touchedPages_ += entriesPerNode;
            t = pt_.lookup(va);
        }
        result.translation = *t;
    }
    return result;
}

std::optional<Translation>
AddressSpace::translate(VirtAddr va) const
{
    return pt_.lookup(va);
}

Pfn
AddressSpace::backRangeContiguous(VirtAddr start, std::uint64_t nPages)
{
    panic_if(start & pageOffsetMask, "backRangeContiguous misaligned");
    const Pfn base = frames_.reserveContiguous(nPages);
    if (base == invalidPfn)
        return invalidPfn;
    for (std::uint64_t i = 0; i < nPages; ++i) {
        const VirtAddr va = start + i * pageSize;
        panic_if(pt_.isMapped(va),
                 "backRangeContiguous over already-mapped %#lx", va);
        const Pfn frame = base + i;
        pt_.map(va, frame, 1);
        pinned_[frame] = 1;     // the run must stay contiguous
        Vma *vma = vmas_.find(va);
        if (vma) {
            ++vma->touchedPages;
            ++touchedPages_;
        }
    }
    return base;
}

bool
AddressSpace::relocateFrame(Pfn pfn)
{
    if (pinned_[pfn])
        return false;
    if (reverseMap_[pfn] == 0)
        return false;           // not a movable data page (e.g. PT node)
    const VirtAddr va = reverseMap_[pfn] - 1;
    const Pfn newFrame = frames_.allocFrame();
    if (newFrame == invalidPfn)
        return false;
    pt_.map(va, newFrame, 1);   // overwrite the leaf with the new frame
    reverseMap_[pfn] = 0;
    reverseMap_[newFrame] = va + 1;
    frames_.freeFrame(pfn);
    ++relocations_;
    return true;
}

std::uint64_t
AddressSpace::vmasForFootprintCoverage(double coverage) const
{
    std::vector<std::uint64_t> touched;
    std::uint64_t total = 0;
    for (const Vma *vma : vmas_.all()) {
        touched.push_back(vma->touchedPages);
        total += vma->touchedPages;
    }
    if (total == 0)
        return 0;
    std::sort(touched.begin(), touched.end(), std::greater<>());
    const auto target = static_cast<std::uint64_t>(
        coverage * static_cast<double>(total));
    std::uint64_t covered = 0;
    std::uint64_t count = 0;
    for (const std::uint64_t pages : touched) {
        covered += pages;
        ++count;
        if (covered >= target)
            break;
    }
    return count;
}

} // namespace asap
