#include "sim/system.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/descriptor_builder.hh"

namespace asap
{

System::System(const SystemConfig &config) : config_(config)
{
    const std::uint64_t machineFramesCount =
        config_.machineMemBytes >> pageShift;
    machineFrames_ = std::make_unique<BuddyAllocator>(machineFramesCount);

    Rng churnRng(config_.seed ^ 0xc0ffee);
    if (config_.churnOps > 0)
        machineFrames_->churn(churnRng, config_.churnOps,
                              config_.churnMaxOrder);

    if (config_.virtualized) {
        // Guest-physical memory is its own allocator: the guest OS's
        // buddy system, oblivious of host placement.
        const std::uint64_t guestFramesCount =
            config_.guestMemBytes >> pageShift;
        guestFrames_ = std::make_unique<BuddyAllocator>(guestFramesCount);
        // Guest churn runs at small orders: a long-lived guest kernel
        // fragments its memory at page granularity, which is what
        // scatters guest frames (and hence host PT locality) in
        // production VMs.
        if (config_.guestChurnOps > 0)
            guestFrames_->churn(churnRng, config_.guestChurnOps,
                                /*maxChurnOrder=*/2);
    }

    BuddyAllocator &appFrames =
        config_.virtualized ? *guestFrames_ : *machineFrames_;

    // Application (guest) PT placement policy.
    if (config_.asapPlacement) {
        auto asap = std::make_unique<AsapPtAllocator>(appFrames,
                                                      config_.asapLevels);
        if (config_.holeFraction > 0.0)
            asap->setHoleFraction(config_.holeFraction, config_.seed);
        appAsap_ = asap.get();
        appPtAllocator_ = std::move(asap);
    } else {
        appPtAllocator_ = std::make_unique<BuddyPtAllocator>(appFrames);
    }

    AddressSpaceConfig appSpaceConfig;
    appSpaceConfig.ptLevels = config_.ptLevels;
    appSpaceConfig.pinnedProb = config_.pinnedProb;
    appSpaceConfig.seed = config_.seed;
    appSpace_ = std::make_unique<AddressSpace>(appFrames, *appPtAllocator_,
                                               appSpaceConfig);
    if (appAsap_)
        appSpace_->addObserver(appAsap_);

    if (config_.virtualized) {
        // Host PT placement policy mirrors the scenario.
        if (config_.asapPlacement) {
            // With 2MB host pages the host PT has no PL1 nodes: the host
            // region targets only PL2 (Fig. 12 "PL2-only in the host").
            std::vector<unsigned> hostLevels =
                config_.hostHugePages ? std::vector<unsigned>{2}
                                      : config_.asapLevels;
            auto asap = std::make_unique<AsapPtAllocator>(*machineFrames_,
                                                          hostLevels);
            hostAsap_ = asap.get();
            hostPtAllocator_ = std::move(asap);
        } else {
            hostPtAllocator_ =
                std::make_unique<BuddyPtAllocator>(*machineFrames_);
        }

        AddressSpaceConfig hostSpaceConfig;
        hostSpaceConfig.ptLevels = config_.hostPtLevels;
        hostSpaceConfig.hugePages = config_.hostHugePages;
        hostSpaceConfig.mmapBase = 0;   // the VM starts at gPA 0
        hostSpaceConfig.seed = config_.seed ^ 0xbeef;
        hostSpace_ = std::make_unique<AddressSpace>(*machineFrames_,
                                                    *hostPtAllocator_,
                                                    hostSpaceConfig);
        if (hostAsap_)
            hostSpace_->addObserver(hostAsap_);

        // From the host's perspective the entire guest VM is one VMA
        // (Section 3.6), which is itself an ASAP prefetch target.
        hostSpace_->mmapAt(0, config_.guestMemBytes, "guest-vm",
                           /*prefetchable=*/true);
    }
}

std::uint64_t
System::mmap(std::uint64_t bytes, const std::string &name,
             bool prefetchable)
{
    if (recorder_)
        recorder_->onMmap(bytes, name, prefetchable);
    const std::uint64_t id = appSpace_->mmap(bytes, name, prefetchable);
    if (config_.virtualized && appAsap_ && prefetchable)
        backGuestAsapRegions(id);
    return id;
}

bool
System::extendVma(std::uint64_t id, std::uint64_t bytes)
{
    return appSpace_->extendVma(id, bytes);
}

AddressSpace::UnmapCounts
System::munmap(std::uint64_t id)
{
    if (config_.virtualized && appAsap_) {
        // Forget the hypervisor's contiguous-backing bases for this
        // VMA's guest PT regions before the allocator erases them. The
        // host pages themselves stay mapped and pinned: the hypervisor
        // holds guest-physical backing until the VM dies (no ballooning
        // modeled), it merely stops advertising a prefetch base.
        for (const AsapPtAllocator::Region *region : appAsap_->regions()) {
            if (region->vmaId == id && region->valid())
                guestRegionHostBase_.erase(region->basePfn);
        }
    }
    return appSpace_->munmapVma(id);
}

AddressSpace::UnmapCounts
System::madviseFree(VirtAddr start, std::uint64_t nPages)
{
    return appSpace_->madviseFree(start, nPages);
}

std::uint64_t
System::releaseMachineChurn(double fraction)
{
    return machineFrames_->releaseChurn(fraction);
}

void
System::backGuestAsapRegions(std::uint64_t vmaId)
{
    // Hypervisor call: back each freshly reserved guest PT region with a
    // contiguous host run so that base-plus-offset prefetch addresses
    // can be computed in host-physical space (Section 3.6).
    for (const AsapPtAllocator::Region *region : appAsap_->regions()) {
        if (region->vmaId != vmaId || !region->valid())
            continue;
        if (guestRegionHostBase_.count(region->basePfn))
            continue;
        const PhysAddr gpaStart =
            static_cast<PhysAddr>(region->basePfn) << pageShift;
        const std::uint64_t bytes = region->backedSlots * pageSize;

        if (config_.hostHugePages) {
            // With 2MB host pages the hypervisor cannot carve an exact
            // 4KB run; it demand-backs the covering 2MB pages and
            // publishes a prefetch base only if the mapping came out
            // host-contiguous (best effort, like region growth).
            for (PhysAddr gpa = alignDown(gpaStart, levelSpan(2));
                 gpa < gpaStart + bytes; gpa += levelSpan(2)) {
                ensureBacked(gpa);
            }
            const PhysAddr hostBase = hostPhysOf(gpaStart);
            bool contiguous = true;
            for (std::uint64_t off = 0; off < bytes && contiguous;
                 off += pageSize) {
                contiguous = hostPhysOf(gpaStart + off) == hostBase + off;
            }
            if (contiguous)
                guestRegionHostBase_.emplace(region->basePfn, hostBase);
            else
                warn("2MB-backed guest region not host-contiguous; "
                     "guest prefetch disabled for it");
            continue;
        }

        // Mid-run tenant arrivals (dyn subsystem) can reserve guest
        // frames whose gPAs the hypervisor already backed for an
        // earlier life (guest frees never tear down host mappings). A
        // fresh contiguous run cannot be carved over those, so fall
        // back to demand backing and publish a base only if the
        // existing mapping happens to be contiguous.
        bool alreadyBacked = false;
        for (std::uint64_t off = 0; off < bytes && !alreadyBacked;
             off += pageSize) {
            alreadyBacked = hostSpace_->translate(gpaStart + off)
                                .has_value();
        }
        if (alreadyBacked) {
            for (std::uint64_t off = 0; off < bytes; off += pageSize)
                ensureBacked(gpaStart + off);
            const PhysAddr hostBase = hostPhysOf(gpaStart);
            bool contiguous = true;
            for (std::uint64_t off = 0; off < bytes && contiguous;
                 off += pageSize) {
                contiguous = hostPhysOf(gpaStart + off) == hostBase + off;
            }
            if (contiguous)
                guestRegionHostBase_.emplace(region->basePfn, hostBase);
            else
                warn("recycled guest region not host-contiguous; "
                     "guest prefetch disabled for it");
            continue;
        }

        const Pfn hostBase =
            hostSpace_->backRangeContiguous(gpaStart,
                                            region->backedSlots);
        if (hostBase == invalidPfn) {
            warn("hypervisor could not back guest region contiguously");
            continue;
        }
        guestRegionHostBase_.emplace(
            region->basePfn, static_cast<PhysAddr>(hostBase) << pageShift);
    }
}

AddressSpace::TouchResult
System::touchRange(VirtAddr start, std::uint64_t pages)
{
    if (recorder_) {
        for (std::uint64_t i = 0; i < pages; ++i)
            recorder_->onTouch(start + i * pageSize);
    }
    const AddressSpace::TouchResult result =
        appSpace_->touchRange(start, pages);
    if (config_.virtualized)
        backGuestRange(start, pages);
    return result;
}

void
System::backGuestRange(VirtAddr start, std::uint64_t pages)
{
    // Back the data page and every guest PT node on the walk path so
    // measurement-phase walks never take host faults. Guest and host
    // allocate from different buddies, so backing after the whole
    // guest range gives every host frame the per-page interleaving
    // would. Per page: the data page, then the path root first, which
    // only the first page of each guest PL1 node needs; the rest share
    // an already-backed path.
    const PageTable &pt = appSpace_->pageTable();
    VirtAddr va = start;
    while (pages > 0) {
        const PtNode &leaf = *pt.leafNodeOf(va);
        const unsigned first = levelIndex(va, 1);
        const unsigned end = static_cast<unsigned>(std::min<std::uint64_t>(
            entriesPerNode, first + pages));
        pages -= end - first;
        for (unsigned slot = first; slot < end; ++slot, va += pageSize) {
            ensureBacked(leaf.entries[slot].pfn() << pageShift);
            if (slot != first)
                continue;
            PtNodeIndex nodeIndex = pt.rootIndex();
            for (unsigned level = pt.levels();; --level) {
                const PtNode &node = pt.nodeAt(nodeIndex);
                ensureBacked(node.pfn << pageShift);
                if (level == 1)
                    break;
                nodeIndex = node.children[levelIndex(va, level)];
            }
        }
    }
}

AddressSpace &
System::hostSpace()
{
    panic_if(!hostSpace_, "hostSpace() on a native system");
    return *hostSpace_;
}

const PageTable &
System::hostPt() const
{
    panic_if(!hostSpace_, "hostPt() on a native system");
    return hostSpace_->pageTable();
}

void
System::ensureBacked(PhysAddr gpa)
{
    panic_if(!hostSpace_, "ensureBacked on a native system");
    hostSpace_->touch(gpa);
}

PhysAddr
System::hostPhysOf(PhysAddr gpa) const
{
    panic_if(!hostSpace_, "hostPhysOf on a native system");
    const auto translation = hostSpace_->translate(gpa);
    panic_if(!translation, "unbacked gpa %#lx", gpa);
    return translation->physAddrOf(gpa);
}

std::vector<VmaDescriptor>
System::appDescriptors() const
{
    if (!appAsap_)
        return {};
    RegionBaseMapper baseOf = nativeRegionBase;
    if (config_.virtualized) {
        baseOf = [this](const AsapPtAllocator::Region &region) -> PhysAddr {
            auto it = guestRegionHostBase_.find(region.basePfn);
            // Regions the hypervisor failed to back contiguously cannot
            // be prefetched: no valid host-physical base exists.
            if (it == guestRegionHostBase_.end())
                return ~PhysAddr{0};
            return it->second;
        };
    }
    return buildVmaDescriptors(appSpace_->vmas(), *appAsap_, baseOf);
}

std::vector<VmaDescriptor>
System::hostDescriptors() const
{
    if (!hostAsap_ || !hostSpace_)
        return {};
    return buildVmaDescriptors(hostSpace_->vmas(), *hostAsap_,
                               nativeRegionBase);
}

void
System::registerCounters(obs::Registry &registry) const
{
    registry.add("buddy.totalFrames", machineFrames_->totalFrames());
    registry.add("buddy.freeFrames", machineFrames_->freeFrames());
    registry.add("buddy.allocatedFrames",
                 machineFrames_->allocatedFrames());
    registry.add("buddy.churnHeldBlocks",
                 machineFrames_->churnHeldBlocks());
    // Fragmentation introspection (PR 9): the largest-free-order is
    // reported as order+1 so the "no free block at all" case (-1) and
    // order-0-only (0) stay distinguishable in an unsigned counter.
    registry.add("buddy.largestFreeOrderPlus1",
                 static_cast<std::uint64_t>(
                     machineFrames_->largestFreeOrder() + 1));
    registry.add("buddy.fragPermille",
                 machineFrames_->fragmentationPermille());
    if (guestFrames_) {
        registry.add("buddy.guest.freeFrames", guestFrames_->freeFrames());
        registry.add("buddy.guest.allocatedFrames",
                     guestFrames_->allocatedFrames());
    }
    registry.add("os.pageFaults", appSpace_->pageFaults());
    registry.add("os.touchedPages", appSpace_->touchedPages());
    registry.add("os.relocations", appSpace_->relocations());
    registry.add("pt.liveNodes", appSpace_->pageTable().nodeCount());
    registry.add("pt.deadNodes", appSpace_->pageTable().deadNodeCount());
    if (appAsap_) {
        registry.add("asapAlloc.app.reservedFrames",
                     appAsap_->reservedFrames());
        registry.add("asapAlloc.app.regionAllocs",
                     appAsap_->regionAllocs());
        registry.add("asapAlloc.app.fallbackAllocs",
                     appAsap_->fallbackAllocs());
        registry.add("asapAlloc.app.failedReservations",
                     appAsap_->failedReservations());
    }
    if (hostAsap_) {
        registry.add("asapAlloc.host.reservedFrames",
                     hostAsap_->reservedFrames());
        registry.add("asapAlloc.host.regionAllocs",
                     hostAsap_->regionAllocs());
        registry.add("asapAlloc.host.fallbackAllocs",
                     hostAsap_->fallbackAllocs());
    }
}

} // namespace asap
