#include "mc/multicore.hh"

#include <algorithm>

#include "common/logging.hh"
#include "mc/shootdown.hh"
#include "obs/profile.hh"
#include "obs/timeline.hh"

namespace asap::mc
{

namespace
{

/** Tenant t's RNG seeds: tenant 0 uses the RunConfig seed verbatim
 *  (the serial-identity anchor); later tenants decorrelate it with a
 *  golden-ratio stride, mirroring the serial corunner's `^ 0x5eed`
 *  idiom of deriving independent streams from one seed. */
std::uint64_t
seedOf(const RunConfig &config, unsigned tenant)
{
    if (tenant == 0)
        return config.seed;
    return config.seed ^ (0x9e3779b97f4a7c15ULL * tenant);
}

} // namespace

MultiCoreSimulator::MultiCoreSimulator(const McConfig &mcConfig,
                                       const MachineConfig &machineConfig)
    : mcConfig_(mcConfig), machineConfig_(machineConfig)
{
    fatal_if(mcConfig_.cores == 0, "multi-core model needs >= 1 core");
    fatal_if(mcConfig_.cores > 64,
             "multi-core model supports at most 64 cores (presence "
             "masks are one u64)");
    fatal_if(mcConfig_.quantum == 0, "scheduler quantum must be >= 1");
    sharedLlc_ = std::make_unique<Cache>(machineConfig_.mem.llc);
    cores_.resize(mcConfig_.cores);
    for (Core &core : cores_) {
        core.mem = std::make_unique<MemoryHierarchy>(machineConfig_.mem,
                                                     sharedLlc_.get());
        core.tlb = std::make_unique<TlbHierarchy>(machineConfig_.tlb);
    }
}

MultiCoreSimulator::~MultiCoreSimulator() = default;

std::uint64_t
MultiCoreSimulator::lineBiasOf(unsigned tenant)
{
    // High part: disjoint line ranges per tenant (lines stay < 2^40
    // for any modeled memory size). Low odd part: set-index diversity
    // in the shared LLC, so tenants do not collide set-aligned.
    return (static_cast<std::uint64_t>(tenant) << 40) +
           static_cast<std::uint64_t>(tenant) * 0x9e37;
}

unsigned
MultiCoreSimulator::addTenant(System &system, Workload &workload)
{
    fatal_if(ran_, "tenants must be added before run()");
    const unsigned index = static_cast<unsigned>(tenants_.size());
    fatal_if(index >= 4096, "too many tenants (%u)", index);
    // Clustered L2 TLB entries are untagged (one base VPN covers a
    // cluster) — ASID-tagged survival across context switches cannot
    // be modeled there. PCID-off mode full-flushes on every switch, so
    // tagging never matters and clustered configs remain usable.
    fatal_if(machineConfig_.tlb.clusteredL2 && mcConfig_.pcid &&
                 index > 0,
             "clustered L2 TLB supports multiple tenants only with "
             "pcid=false (untagged entries cannot survive a switch)");

    auto tenant = std::make_unique<Tenant>();
    tenant->system = &system;
    tenant->workload = &workload;
    tenant->proxy = std::make_unique<TenantShootdownProxy>(*this, index);
    tenant->machines.reserve(cores_.size());
    for (Core &core : cores_) {
        tenant->machines.push_back(std::make_unique<Machine>(
            system, machineConfig_, core.mem.get(), core.tlb.get()));
        if (sink_)
            tenant->machines.back()->attachTraceSink(sink_);
    }
    tenants_.push_back(std::move(tenant));
    return index;
}

void
MultiCoreSimulator::attachTraceSink(obs::TraceSink *sink)
{
    sink_ = sink;
    for (auto &tenant : tenants_)
        for (auto &machine : tenant->machines)
            machine->attachTraceSink(sink);
}

void
MultiCoreSimulator::attachTimeline(obs::Timeline *timeline)
{
    timeline_ = timeline;
}

TlbHierarchy &
MultiCoreSimulator::coreTlb(unsigned core)
{
    panic_if(core >= cores_.size(), "core %u out of %zu", core,
             cores_.size());
    return *cores_[core].tlb;
}

MemoryHierarchy &
MultiCoreSimulator::coreMem(unsigned core)
{
    panic_if(core >= cores_.size(), "core %u out of %zu", core,
             cores_.size());
    return *cores_[core].mem;
}

Machine &
MultiCoreSimulator::machineOf(unsigned tenant, unsigned core)
{
    panic_if(tenant >= tenants_.size(), "tenant %u out of %zu", tenant,
             tenants_.size());
    panic_if(core >= cores_.size(), "core %u out of %zu", core,
             cores_.size());
    return *tenants_[tenant]->machines[core];
}

void
MultiCoreSimulator::switchIn(unsigned core, unsigned tenant)
{
    Core &c = cores_[core];
    Tenant &tn = *tenants_[tenant];
    if (c.runningTenant != static_cast<int>(tenant)) {
        if (c.runningTenant >= 0) {
            // A real context switch (not the core's first
            // assignment): direct cost on the core's clock, absorbed
            // by the incoming tenant.
            c.now += mcConfig_.switchCycles;
            tn.mcStats.switchInCycles += mcConfig_.switchCycles;
            ++c.stats.switches;
        }
        if (mcConfig_.pcid) {
            // CR3 reload with PCID: entries survive, tagged; the TLB
            // simply answers for the incoming address space now.
            c.tlb->setAsid(static_cast<std::uint16_t>(tenant));
        } else {
            // Legacy CR3 write: the core's TLB drops everything (all
            // tenants' entries — clear their presence bits here), and
            // the paging-structure caches of the incoming address
            // space start cold.
            c.tlb->flushEntries();
            for (auto &other : tenants_)
                other->presence &= ~(1ull << core);
            tn.machines[core]->appPwc().flushEntries();
        }
        c.runningTenant = static_cast<int>(tenant);
    }
    c.mem->setLineBias(lineBiasOf(tenant));
    tn.presence |= 1ull << core;
    tn.lastCore = core;
}

Machine::InvalidateCounts
MultiCoreSimulator::tenantShootdown(unsigned tenant, VirtAddr start,
                                    VirtAddr end)
{
    Tenant &tn = *tenants_[tenant];
    const unsigned initiator = tn.lastCore;
    Core &initCore = cores_[initiator];
    // The initiating core is always targeted (the local INVLPG loop),
    // even when the tenant has not run yet (a pre-run shootdown).
    const std::uint64_t mask = tn.presence | (1ull << initiator);
    // Without PCID every resident entry is untagged (ASID 0) and, by
    // the flush-on-switch invariant, belongs to the tenant currently
    // on the core — so ASID-0 targeting is exact there too.
    const auto asid =
        static_cast<std::uint16_t>(mcConfig_.pcid ? tenant : 0u);

    Machine::InvalidateCounts counts;
    unsigned remotes = 0;
    for (unsigned c = 0; c < cores_.size(); ++c) {
        if (!((mask >> c) & 1))
            continue;
        const std::uint64_t tlbDropped =
            cores_[c].tlb->invalidateRangeAsid(start, end, asid);
        const std::uint64_t pwcDropped =
            tn.machines[c]->appPwc().invalidateRange(start, end);
        counts.tlb += tlbDropped;
        counts.pwc += pwcDropped;
        cores_[c].stats.tlbShootdownDropped += tlbDropped;
        cores_[c].stats.pwcShootdownDropped += pwcDropped;
        if (c == initiator)
            continue;
        // Remote core: take the IPI. The interrupt time advances the
        // *remote* clock (its tenant genuinely stalls), but the cycles
        // are attributed to the initiating tenant — shootdown cost
        // must land on whoever unmapped, not smear across victims.
        ++remotes;
        cores_[c].now += machineConfig_.ipiInterruptLatency;
        ++cores_[c].stats.ipisReceived;
        cores_[c].stats.ipiInterruptCycles +=
            machineConfig_.ipiInterruptLatency;
        tn.mcStats.ipiRemoteCycles += machineConfig_.ipiInterruptLatency;
        if (sink_) {
            sink_->ipi(initCore.now, initiator, c,
                       machineConfig_.ipiInterruptLatency);
        }
    }
    if (remotes > 0) {
        const Cycles sendWait =
            machineConfig_.ipiSendLatency * remotes +
            machineConfig_.ipiWaitLatency;
        initCore.now += sendWait;
        tn.mcStats.ipiSendWaitCycles += sendWait;
        tn.mcStats.ipisSent += remotes;
    }
    ++tn.mcStats.shootdowns;
    return counts;
}

void
MultiCoreSimulator::tenantRefresh(unsigned tenant)
{
    for (auto &machine : tenants_[tenant]->machines)
        machine->refreshDescriptors();
}

Machine::InvalidateCounts
MultiCoreSimulator::shootdownAll(unsigned tenant)
{
    panic_if(tenant >= tenants_.size(), "tenant %u out of %zu", tenant,
             tenants_.size());
    return tenantShootdown(tenant, 0, ~VirtAddr{0});
}

Cycles
MultiCoreSimulator::maxCoreNow() const
{
    Cycles max = 0;
    for (const Core &core : cores_)
        max = std::max(max, core.now);
    return max;
}

obs::Counters
MultiCoreSimulator::collectAggregateCounters() const
{
    // Core-shared hardware first, in the serial name order
    // (registerMemTlbCounters is the single source of the list), summed
    // positionally across cores ...
    obs::Counters counters;
    for (const Core &core : cores_) {
        obs::Registry registry;
        Machine::registerMemTlbCounters(registry, *core.mem, *core.tlb);
        obs::addCounters(counters, registry.snapshot());
    }
    // ... except the LLC, which is one shared structure every core's
    // hierarchy points at: the positional sum counted it once per
    // core, so restore the true value.
    if (cores_.size() > 1) {
        for (auto &[name, value] : counters) {
            if (name == "llc.hits")
                value = sharedLlc_->hits();
            else if (name == "llc.misses")
                value = sharedLlc_->misses();
        }
    }

    // Tenant-private translation machinery, summed over every
    // (tenant, core) machine.
    obs::Counters translation;
    for (const auto &tenant : tenants_) {
        for (const auto &machine : tenant->machines) {
            obs::Registry registry;
            machine->registerTranslationCounters(registry);
            obs::addCounters(translation, registry.snapshot());
        }
    }
    counters.insert(counters.end(), translation.begin(),
                    translation.end());

    // OS-side state, summed over tenants.
    obs::Counters system;
    OsDynStats dyn{};
    for (const auto &tenant : tenants_) {
        obs::Registry registry;
        tenant->system->registerCounters(registry);
        obs::addCounters(system, registry.snapshot());

        dyn.merge(tenant->stream->dynStats());
    }
    counters.insert(counters.end(), system.begin(), system.end());
    dyn.appendCounters(counters);

    // Scheduler/IPI telemetry — only on a genuinely multi-core or
    // multi-tenant shape, so the 1x1 list stays bit-identical to the
    // serial Simulator's.
    if (cores_.size() > 1 || tenants_.size() > 1) {
        for (std::size_t c = 0; c < cores_.size(); ++c) {
            const CoreStats &s = cores_[c].stats;
            const auto name = [c](const char *leaf) {
                return strprintf("mc.core%zu.%s", c, leaf);
            };
            counters.emplace_back(name("switches"), s.switches);
            counters.emplace_back(name("ipisReceived"), s.ipisReceived);
            counters.emplace_back(name("ipiInterruptCycles"),
                                  s.ipiInterruptCycles);
            counters.emplace_back(name("tlbShootdownDropped"),
                                  s.tlbShootdownDropped);
            counters.emplace_back(name("pwcShootdownDropped"),
                                  s.pwcShootdownDropped);
        }
        TenantStats total;
        std::uint64_t switches = 0;
        for (const Core &core : cores_)
            switches += core.stats.switches;
        for (const auto &tenant : tenants_) {
            total.shootdowns += tenant->mcStats.shootdowns;
            total.ipisSent += tenant->mcStats.ipisSent;
            total.ipiSendWaitCycles += tenant->mcStats.ipiSendWaitCycles;
            total.ipiRemoteCycles += tenant->mcStats.ipiRemoteCycles;
            total.switchInCycles += tenant->mcStats.switchInCycles;
        }
        counters.emplace_back("mc.contextSwitches", switches);
        counters.emplace_back("mc.shootdowns", total.shootdowns);
        counters.emplace_back("mc.ipisSent", total.ipisSent);
        counters.emplace_back("mc.ipiSendWaitCycles",
                              total.ipiSendWaitCycles);
        counters.emplace_back("mc.ipiRemoteCycles",
                              total.ipiRemoteCycles);
        counters.emplace_back("mc.switchInCycles", total.switchInCycles);
        counters.emplace_back("mc.slots", slots_);
    }
    return counters;
}

obs::Counters
MultiCoreSimulator::collectGauges() const
{
    obs::Counters gauges;
    const auto permille = [](std::uint64_t part,
                             std::uint64_t whole) -> std::uint64_t {
        return whole == 0 ? 0 : 1000 * part / whole;
    };
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        const Core &core = cores_[c];
        const auto gauge = [&gauges, c](const char *leaf,
                                        std::uint64_t value) {
            gauges.emplace_back(strprintf("core%zu.%s", c, leaf), value);
        };
        gauge("tlb.l1Valid", core.tlb->l1ValidEntries());
        gauge("tlb.l1ValidPermille",
              permille(core.tlb->l1ValidEntries(),
                       core.tlb->l1Entries()));
        gauge("tlb.l2Valid", core.tlb->l2ValidEntries());
        gauge("tlb.l2ValidPermille",
              permille(core.tlb->l2ValidEntries(),
                       core.tlb->l2Entries()));
        // The PWCs on this core: one per tenant machine, so occupancy
        // is the sum over tenants (capacity scales the same way).
        std::uint64_t pwcValid = 0, pwcCapacity = 0;
        for (const auto &tenant : tenants_) {
            pwcValid += tenant->machines[c]->appPwc().validEntries();
            pwcCapacity +=
                tenant->machines[c]->appPwc().capacityEntries();
        }
        gauge("pwc.appValid", pwcValid);
        gauge("pwc.appValidPermille", permille(pwcValid, pwcCapacity));
        gauge("mshr.inflight", core.mem->inflightPrefetches());
        gauge("mshr.inflightHighWater", core.mem->inflightHighWater());
    }
    return gauges;
}

void
MultiCoreSimulator::finalizeTenant(unsigned tenant)
{
    Tenant &tn = *tenants_[tenant];
    tn.stream->finish(cores_[tn.lastCore].now);
    RunStats &stats = tn.stream->stats();

    // ASAP engines are per (tenant, core) machine; a tenant's view is
    // the sum over the cores it visited (engines elsewhere stayed 0).
    for (const auto &machine : tn.machines) {
        stats.appAsap.merge(AsapEngineStats::of(machine->appEngine()));
        stats.hostAsap.merge(AsapEngineStats::of(machine->hostEngine()));
    }

    // Per-tenant counters: this tenant's translation machinery (summed
    // over its machines), its System, its dyn activity, and its IPI
    // attribution. Core-shared cache/TLB counters are deliberately
    // absent — they belong to cores, not tenants (the aggregate
    // carries them).
    obs::Counters counters;
    for (const auto &machine : tn.machines) {
        obs::Registry registry;
        machine->registerTranslationCounters(registry);
        obs::addCounters(counters, registry.snapshot());
    }
    {
        obs::Registry registry;
        tn.system->registerCounters(registry);
        const obs::Counters &system = registry.snapshot();
        counters.insert(counters.end(), system.begin(), system.end());
    }
    stats.dyn.appendCounters(counters);
    counters.emplace_back("mc.shootdowns", tn.mcStats.shootdowns);
    counters.emplace_back("mc.ipisSent", tn.mcStats.ipisSent);
    counters.emplace_back("mc.ipiSendWaitCycles",
                          tn.mcStats.ipiSendWaitCycles);
    counters.emplace_back("mc.ipiRemoteCycles",
                          tn.mcStats.ipiRemoteCycles);
    counters.emplace_back("mc.switchInCycles",
                          tn.mcStats.switchInCycles);
    stats.counters = std::move(counters);
}

McResult
MultiCoreSimulator::run(const RunConfig &config)
{
    fatal_if(ran_, "MultiCoreSimulator::run is one-shot");
    fatal_if(tenants_.empty(), "no tenants registered");

    ran_ = true;
    const double runStart = obs::wallSeconds();

    for (std::size_t t = 0; t < tenants_.size(); ++t) {
        Tenant &tn = *tenants_[t];
        tn.stream.emplace(*tn.system, *tn.workload, *tn.proxy, config,
                          seedOf(config, static_cast<unsigned>(t)));
    }

    const std::uint64_t epochLen =
        timeline_ ? timeline_->epochAccesses() : 0;
    const std::uint64_t measureTotal =
        config.measureAccesses * tenants_.size();
    std::uint64_t nextEpoch = epochLen;
    std::uint64_t measuredDone = 0;

    // The slot loop: round-robin with rotation over the still-active
    // tenants, width-limited by the core count. Purely a function of
    // (slot, active set) — never of timing — so scheduling is
    // deterministic by construction.
    std::vector<unsigned> active;
    while (true) {
        active.clear();
        for (std::size_t t = 0; t < tenants_.size(); ++t) {
            if (!tenants_[t]->stream->done())
                active.push_back(static_cast<unsigned>(t));
        }
        if (active.empty())
            break;
        const std::size_t width =
            std::min<std::size_t>(cores_.size(), active.size());
        for (std::size_t c = 0; c < width; ++c) {
            const unsigned t = active[(slots_ + c) % active.size()];
            switchIn(static_cast<unsigned>(c), t);
            Tenant &tn = *tenants_[t];
            measuredDone += tn.stream->advance(
                *tn.machines[c], cores_[c].now, mcConfig_.quantum);
        }
        ++slots_;

        // Epoch sampling at slot boundaries: the serial Simulator
        // samples at exact epoch multiples; here a slot may cross
        // several, so boundaries land on the first slot edge at or
        // past each mark (documented Timeline granularity for mc
        // runs). The final boundary is sampled after finalization.
        if (epochLen != 0 && measuredDone >= nextEpoch &&
            measuredDone < measureTotal) {
            obs::Histogram walkHist, dataHist;
            for (const auto &tenant : tenants_) {
                walkHist.merge(tenant->stream->stats().walkHist);
                dataHist.merge(tenant->stream->stats().dataHist);
            }
            timeline_->sample(measuredDone, maxCoreNow(),
                              collectAggregateCounters(), walkHist,
                              dataHist, collectGauges());
            while (nextEpoch <= measuredDone)
                nextEpoch += epochLen;
        }
    }

    McResult result;
    result.tenants.reserve(tenants_.size());
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
        finalizeTenant(static_cast<unsigned>(t));
        result.tenants.push_back(tenants_[t]->stream->stats());
        result.tenantMc.push_back(tenants_[t]->mcStats);
    }
    for (const Core &core : cores_)
        result.coreMc.push_back(core.stats);
    result.slots = slots_;
    result.maxCoreCycle = maxCoreNow();

    // Aggregate: mergeable fields summed over tenants (exact and
    // associative, the RunStats::merge contract), then the counter
    // list replaced by the structural assembly — per-tenant lists
    // carry no core-shared counters and must not be summed as if they
    // did.
    for (const RunStats &tenant : result.tenants)
        result.aggregate.merge(tenant);
    result.aggregate.counters = collectAggregateCounters();

    result.aggregate.profile.measureSec = obs::wallSeconds() - runStart;
    result.aggregate.profile.accessesPerSec =
        result.aggregate.profile.measureSec > 0.0
            ? static_cast<double>(measureTotal) /
                  result.aggregate.profile.measureSec
            : 0.0;

    if (timeline_) {
        timeline_->sample(measureTotal, maxCoreNow(),
                          result.aggregate.counters,
                          result.aggregate.walkHist,
                          result.aggregate.dataHist, collectGauges());
    }
    return result;
}

} // namespace asap::mc
