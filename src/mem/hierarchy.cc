#include "mem/hierarchy.hh"

namespace asap
{

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig &config,
                                 Cache *sharedLlc)
    : config_(config), l1d_(config.l1d), l2_(config.l2),
      mshrs_(config.prefetchMshrs)
{
    if (sharedLlc) {
        llc_ = sharedLlc;
    } else {
        llcOwned_.emplace(config.llc);
        llc_ = &*llcOwned_;
    }
}

} // namespace asap
