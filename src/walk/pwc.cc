#include "walk/pwc.hh"

#include "common/logging.hh"

namespace asap
{

PageWalkCaches::PageWalkCaches(const PwcConfig &config, unsigned ptLevels)
    : config_(config), ptLevels_(ptLevels)
{
    fatal_if(ptLevels < 2 || ptLevels > 5, "bad PT level count %u",
             ptLevels);
    for (unsigned level = 2; level <= ptLevels_; ++level) {
        const auto &geometry = config_.level[level];
        if (geometry.entries == 0)
            continue;
        const unsigned ways =
            geometry.ways == 0 ? geometry.entries : geometry.ways;
        fatal_if(geometry.entries % ways != 0,
                 "PWC level %u: bad associativity", level);
        fatal_if(!isPow2(geometry.entries / ways),
                 "PWC level %u: set count must be a power of two", level);
        caches_[level].init(geometry.entries / ways, ways);
    }
}

PageWalkCaches::Hit
PageWalkCaches::lookupDeepest(VirtAddr va)
{
    ++lookups_;
    // Deepest level first: a PL2 hit skips the most work.
    for (unsigned level = 2; level <= ptLevels_; ++level) {
        SetAssoc<Payload> &cache = caches_[level];
        if (cache.empty())
            continue;
        const std::uint64_t tag = tagOf(va, level);
        const std::uint64_t set = cache.setOf(tag);
        const auto way = cache.find(set, SetAssoc<Payload>::keyFor(tag));
        if (way) {
            // Read before touch(), which moves the way.
            const Hit hit{level, way.payload->childPfn,
                          way.payload->childIndex};
            cache.touch(set, way);
            ++hits_;
            return hit;
        }
    }
    return {};
}

void
PageWalkCaches::insert(unsigned level, VirtAddr va, Pfn childPfn,
                       PtNodeIndex childIndex)
{
    panic_if(level < 2 || level > ptLevels_,
             "PWC insert at level %u", level);
    SetAssoc<Payload> &cache = caches_[level];
    if (cache.empty())
        return;
    const std::uint64_t tag = tagOf(va, level);
    const std::uint64_t set = cache.setOf(tag);
    const auto slot = cache.findOrVictim(set, SetAssoc<Payload>::keyFor(tag));
    *slot.way.key = SetAssoc<Payload>::keyFor(tag);
    slot.way.payload->childPfn = childPfn;
    slot.way.payload->childIndex = childIndex;
    cache.touch(set, slot.way);
}

std::uint64_t
PageWalkCaches::invalidateRange(VirtAddr start, VirtAddr end)
{
    std::uint64_t dropped = 0;
    for (unsigned level = 2; level <= ptLevels_; ++level) {
        SetAssoc<Payload> &cache = caches_[level];
        if (cache.empty())
            continue;
        dropped += cache.invalidateWhere(
            [level, start, end](std::uint64_t key, const Payload &) {
                // Keys are keyFor-biased tags (va >> levelShift(level));
                // an entry covers one level-L PT entry's span.
                const VirtAddr base = (key - 1) << levelShift(level);
                return base < end && base + levelSpan(level) > start;
            });
    }
    return dropped;
}

void
PageWalkCaches::flushEntries()
{
    for (auto &cache : caches_)
        cache.flush();
}

} // namespace asap
