#include "pt/page_table.hh"

#include <algorithm>

#include "common/logging.hh"

namespace asap
{

PageTable::PageTable(PtNodeAllocator &allocator, unsigned levels)
    : allocator_(allocator), levels_(levels)
{
    fatal_if(levels != 4 && levels != 5,
             "PageTable supports 4 or 5 levels, got %u", levels);
    // The root node always exists (a process has a CR3 from birth).
    rootIndex_ = createNode(levels_, 0);
}

PageTable::~PageTable()
{
    for (const PtNode &node : slab_) {
        if (node.pfn != invalidPfn)
            allocator_.freeNodeFrame(node.level, node.pfn);
    }
}

PtNodeIndex
PageTable::indexOf(Pfn pfn) const
{
    auto it = pfnToIndex_.find(pfn);
    return it == pfnToIndex_.end() ? invalidPtNodeIndex : it->second;
}

const PtNode *
PageTable::node(Pfn pfn) const
{
    const PtNodeIndex index = indexOf(pfn);
    return index == invalidPtNodeIndex ? nullptr : &slab_[index];
}

PtNodeIndex
PageTable::createNode(unsigned level, VirtAddr va)
{
    const Pfn pfn = allocator_.allocNodeFrame(level, va);
    panic_if(pfn == invalidPfn, "PT node allocation failed at level %u",
             level);
    panic_if(pfnToIndex_.count(pfn),
             "PT node frame %#lx allocated twice", pfn);
    const PtNodeIndex index = static_cast<PtNodeIndex>(slab_.size());
    slab_.emplace_back();
    slab_.back().level = level;
    slab_.back().pfn = pfn;
    pfnToIndex_.emplace(pfn, index);
    return index;
}

PtNodeIndex
PageTable::ensurePath(VirtAddr va, unsigned leafLevel)
{
    PtNodeIndex nodeIndex = rootIndex_;
    for (unsigned level = levels_; level > leafLevel; --level) {
        const unsigned slot = levelIndex(va, level);
        // createNode may grow the slab, so re-resolve the node after it.
        if (!slab_[nodeIndex].entries[slot].present()) {
            const PtNodeIndex child = createNode(level - 1, va);
            PtNode &node = slab_[nodeIndex];
            node.entries[slot] = Pte::make(slab_[child].pfn);
            node.children[slot] = child;
            ++node.populated;
        }
        PtNode &node = slab_[nodeIndex];
        panic_if(node.entries[slot].huge(),
                 "mapping %#lx under an existing %u-level huge leaf",
                 va, level);
        nodeIndex = node.children[slot];
    }
    return nodeIndex;
}

void
PageTable::map(VirtAddr va, Pfn pfn, unsigned leafLevel)
{
    panic_if(leafLevel < 1 || leafLevel > 3,
             "unsupported leaf level %u", leafLevel);
    PtNode &leafNode = slab_[ensurePath(va, leafLevel)];
    Pte &leaf = leafNode.entries[levelIndex(va, leafLevel)];
    if (!leaf.present())
        ++leafNode.populated;
    leaf = Pte::make(pfn, /*huge=*/leafLevel > 1);
}

void
PageTable::unmap(VirtAddr va)
{
    PtNodeIndex nodeIndex = rootIndex_;
    for (unsigned level = levels_; level >= 1; --level) {
        PtNode &node = slab_[nodeIndex];
        const unsigned slot = levelIndex(va, level);
        Pte &entry = node.entries[slot];
        if (!entry.present())
            return;
        if (entry.isLeaf(level)) {
            entry.clear();
            node.children[slot] = invalidPtNodeIndex;
            --node.populated;
            return;
        }
        nodeIndex = node.children[slot];
    }
}

void
PageTable::releaseNode(PtNodeIndex index)
{
    PtNode &node = slab_[index];
    panic_if(node.populated != 0, "releasing a populated PT node");
    pfnToIndex_.erase(node.pfn);
    allocator_.freeNodeFrame(node.level, node.pfn);
    node.pfn = invalidPfn;
    ++deadNodes_;
}

std::uint64_t
PageTable::pruneNode(PtNodeIndex nodeIndex, VirtAddr nodeBase,
                     VirtAddr start, VirtAddr end)
{
    // No createNode runs during a prune, so the slab cannot reallocate
    // under these references.
    PtNode &node = slab_[nodeIndex];
    const unsigned level = node.level;
    const std::uint64_t span = levelSpan(level);
    std::uint64_t freed = 0;
    for (unsigned slot = 0; slot < entriesPerNode; ++slot) {
        const VirtAddr childBase = nodeBase + slot * span;
        if (childBase >= end || childBase + span <= start)
            continue;
        Pte &entry = node.entries[slot];
        if (!entry.present() || entry.isLeaf(level))
            continue;
        const PtNodeIndex childIndex = node.children[slot];
        freed += pruneNode(childIndex, childBase, start, end);
        if (slab_[childIndex].populated == 0) {
            entry.clear();
            node.children[slot] = invalidPtNodeIndex;
            --node.populated;
            releaseNode(childIndex);
            ++freed;
        }
    }
    return freed;
}

std::uint64_t
PageTable::pruneRange(VirtAddr start, VirtAddr end)
{
    if (start >= end)
        return 0;
    return pruneNode(rootIndex_, 0, start, end);
}

std::optional<Translation>
PageTable::lookup(VirtAddr va) const
{
    PtNodeIndex nodeIndex = rootIndex_;
    for (unsigned level = levels_; level >= 1; --level) {
        const PtNode &node = slab_[nodeIndex];
        const unsigned slot = levelIndex(va, level);
        const Pte entry = node.entries[slot];
        if (!entry.present())
            return std::nullopt;
        if (entry.isLeaf(level)) {
            Translation t;
            t.pfn = entry.pfn();
            t.leafLevel = level;
            t.pteAddr = entryPhysAddr(node.pfn, va, level);
            return t;
        }
        nodeIndex = node.children[slot];
    }
    return std::nullopt;
}

PtNodeIndex
PageTable::leafIndexOf(VirtAddr va) const
{
    PtNodeIndex nodeIndex = rootIndex_;
    for (unsigned level = levels_; level > 1; --level) {
        const PtNode &node = slab_[nodeIndex];
        const unsigned slot = levelIndex(va, level);
        const Pte entry = node.entries[slot];
        if (!entry.present() || entry.isLeaf(level))
            return invalidPtNodeIndex;
        nodeIndex = node.children[slot];
    }
    return nodeIndex;
}

const PtNode *
PageTable::leafNodeOf(VirtAddr va) const
{
    const PtNodeIndex index = leafIndexOf(va);
    return index == invalidPtNodeIndex ? nullptr : &slab_[index];
}

Pte
PageTable::readEntry(Pfn nodePfn, VirtAddr va, unsigned level) const
{
    const PtNode *n = node(nodePfn);
    panic_if(!n, "readEntry on non-PT frame %#lx", nodePfn);
    panic_if(n->level != level,
             "readEntry level mismatch: node %u, asked %u", n->level, level);
    return n->entries[levelIndex(va, level)];
}

void
PageTable::setAccessed(VirtAddr va, bool dirty)
{
    PtNodeIndex nodeIndex = rootIndex_;
    for (unsigned level = levels_; level >= 1; --level) {
        PtNode &node = slab_[nodeIndex];
        const unsigned slot = levelIndex(va, level);
        Pte &entry = node.entries[slot];
        if (!entry.present())
            return;
        if (entry.isLeaf(level)) {
            entry.setAccessed();
            if (dirty)
                entry.setDirty();
            return;
        }
        nodeIndex = node.children[slot];
    }
}

std::uint64_t
PageTable::nodeCountAtLevel(unsigned level) const
{
    std::uint64_t count = 0;
    for (const PtNode &node : slab_) {
        if (node.level == level && node.pfn != invalidPfn)
            ++count;
    }
    return count;
}

std::vector<Pfn>
PageTable::nodePfns() const
{
    std::vector<Pfn> pfns;
    pfns.reserve(slab_.size());
    for (const PtNode &node : slab_) {
        if (node.pfn != invalidPfn)
            pfns.push_back(node.pfn);
    }
    std::sort(pfns.begin(), pfns.end());
    return pfns;
}

std::uint64_t
PageTable::countContiguousRegions() const
{
    const std::vector<Pfn> pfns = nodePfns();
    if (pfns.empty())
        return 0;
    std::uint64_t regions = 1;
    for (std::size_t i = 1; i < pfns.size(); ++i) {
        if (pfns[i] != pfns[i - 1] + 1)
            ++regions;
    }
    return regions;
}

} // namespace asap
