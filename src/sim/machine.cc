#include "sim/machine.hh"

#include "common/logging.hh"
#include "core/descriptor_builder.hh"

namespace asap
{

Machine::Machine(System &system, const MachineConfig &config)
    : Machine(system, config, nullptr, nullptr)
{
}

Machine::Machine(System &system, const MachineConfig &config,
                 MemoryHierarchy *sharedMem, TlbHierarchy *sharedTlb)
    : system_(system), config_(config),
      appPwc_(config.pwc.scaled(config.pwcScale),
              system.config().ptLevels),
      appRegisters_(config.rangeRegisters),
      hostRegisters_(config.rangeRegisters)
{
    if (sharedMem) {
        mem_ = sharedMem;
    } else {
        memOwned_.emplace(config.mem);
        mem_ = &*memOwned_;
    }
    if (sharedTlb) {
        tlb_ = sharedTlb;
    } else {
        tlbOwned_.emplace(config.tlb);
        tlb_ = &*tlbOwned_;
    }

    if (config_.appAsap.enabled)
        appEngine_ = std::make_unique<AsapEngine>(appRegisters_, *mem_,
                                                  config_.appAsap);

    if (!system_.virtualized()) {
        nativeWalker_ = std::make_unique<PageWalker>(
            system_.appPt(), *mem_, appPwc_, appEngine_.get());
    } else {
        if (config_.hostAsap.enabled)
            hostEngine_ = std::make_unique<AsapEngine>(hostRegisters_,
                                                       *mem_,
                                                       config_.hostAsap);
        hostPwc_.emplace(config_.pwc.scaled(config_.pwcScale),
                         system_.config().hostPtLevels);
        hostWalker_ = std::make_unique<PageWalker>(
            system_.hostPt(), *mem_, *hostPwc_, hostEngine_.get());
        nestedWalker_ = std::make_unique<NestedWalker>(
            system_.appPt(), appPwc_, *hostWalker_, *mem_, system_,
            appEngine_.get());
    }

    refreshDescriptors();
}

void
Machine::attachTraceSink(obs::TraceSink *sink)
{
    sink_ = sink;
    mem_->setTraceSink(sink);
    if (appEngine_)
        appEngine_->setTraceSink(sink, obs::Track::AsapApp);
    if (hostEngine_)
        hostEngine_->setTraceSink(sink, obs::Track::AsapHost);
}

namespace
{

std::uint64_t
packWalkLevels(const WalkResult &walk)
{
    std::uint64_t packed = 0;
    for (unsigned level = 1; level <= 5; ++level) {
        if (walk.requested[level]) {
            packed = obs::packWalkLevel(
                packed, level,
                static_cast<unsigned>(walk.servedBy[level]));
        }
    }
    return packed;
}

} // namespace

void
Machine::registerCounters(obs::Registry &registry) const
{
    registerMemTlbCounters(registry, *mem_, *tlb_);
    registerTranslationCounters(registry);
}

void
Machine::registerMemTlbCounters(obs::Registry &registry,
                                const MemoryHierarchy &mem,
                                const TlbHierarchy &tlb)
{
    registry.add("l1d.hits", mem.l1d().hits());
    registry.add("l1d.misses", mem.l1d().misses());
    registry.add("l2.hits", mem.l2().hits());
    registry.add("l2.misses", mem.l2().misses());
    registry.add("llc.hits", mem.llc().hits());
    registry.add("llc.misses", mem.llc().misses());
    registry.add("mshr.prefetchesIssued", mem.prefetchesIssued());
    registry.add("mshr.prefetchesDropped", mem.prefetchesDropped());
    registry.add("mshr.prefetchMerges", mem.prefetchMerges());
    registry.add("mshr.inflightHighWater", mem.inflightHighWater());
    registry.add("tlb.lookups", tlb.lookups());
    registry.add("tlb.l1Misses", tlb.l1Misses());
    registry.add("tlb.l2Misses", tlb.l2Misses());
    registry.add("tlb.l1ValidEntries", tlb.l1ValidEntries());
    registry.add("tlb.l2ValidEntries", tlb.l2ValidEntries());
}

void
Machine::registerTranslationCounters(obs::Registry &registry) const
{
    registry.add("pwc.app.hits", appPwc_.hits());
    registry.add("pwc.app.lookups", appPwc_.lookups());
    registry.add("pwc.app.validEntries", appPwc_.validEntries());
    if (hostPwc_) {
        registry.add("pwc.host.hits", hostPwc_->hits());
        registry.add("pwc.host.lookups", hostPwc_->lookups());
        registry.add("pwc.host.validEntries", hostPwc_->validEntries());
    }
    registry.add("walker.walks", walks());
    registry.add("walker.faultsServiced", faultsServiced_);
    registry.add("ranges.app.lookups", appRegisters_.lookups());
    registry.add("ranges.app.hits", appRegisters_.hits());
    if (appEngine_) {
        registry.add("asap.app.triggers", appEngine_->triggers());
        registry.add("asap.app.rangeHits", appEngine_->rangeHits());
        registry.add("asap.app.attempted", appEngine_->attempted());
        registry.add("asap.app.issued", appEngine_->issued());
    }
    if (hostEngine_) {
        registry.add("asap.host.triggers", hostEngine_->triggers());
        registry.add("asap.host.rangeHits", hostEngine_->rangeHits());
        registry.add("asap.host.attempted", hostEngine_->attempted());
        registry.add("asap.host.issued", hostEngine_->issued());
    }
}

void
Machine::refreshDescriptors()
{
    appRegisters_.clear();
    installDescriptors(appRegisters_, system_.appDescriptors());
    hostRegisters_.clear();
    if (system_.virtualized())
        installDescriptors(hostRegisters_, system_.hostDescriptors());
}

Machine::TranslateResult
Machine::translateMiss(VirtAddr va, Cycles now)
{
    TranslateResult out;
    out.walked = true;
    if (!system_.virtualized()) {
        WalkResult &walk = walkScratch_;
        nativeWalker_->walk(va, now, walk);
        if (walk.fault) {
            // The OS services the fault; the walker then replays. The
            // (microsecond-scale) software fault cost is excluded from
            // walk-latency statistics, as in the paper's methodology.
            out.faulted = true;
            ++faultsServiced_;
            if (sink_)
                sink_->fault(now, va);
            system_.touch(va);
            nativeWalker_->walk(va, now, walk);
            panic_if(walk.fault, "fault persists after OS service");
        }
        out.walkLatency = walk.latency;
        out.translation = walk.translation;
        out.walk = &walk;
        if (sink_) {
            sink_->walkSpan(now, walk.latency, va, out.faulted,
                            packWalkLevels(walk));
        }
        tlb_->fill(va, walk.translation, &system_.appPt());
    } else {
        NestedWalkResult walk = nestedWalker_->walk(va, now);
        if (walk.fault) {
            out.faulted = true;
            ++faultsServiced_;
            if (sink_)
                sink_->fault(now, va);
            system_.touch(va);
            walk = nestedWalker_->walk(va, now);
            panic_if(walk.fault, "nested fault persists after service");
        }
        out.walkLatency = walk.latency;
        out.translation = walk.translation;
        if (sink_) {
            sink_->nestedWalkSpan(now, walk.latency, va, out.faulted,
                                  walk.memAccesses);
        }
        // Nested walks carry no per-level breakdown: out.walk stays
        // null.
        tlb_->fill(va, walk.translation, nullptr);
    }
    return out;
}

std::uint64_t
Machine::walks() const
{
    if (nativeWalker_)
        return nativeWalker_->walks();
    return nestedWalker_ ? nestedWalker_->walks() : 0;
}

} // namespace asap
