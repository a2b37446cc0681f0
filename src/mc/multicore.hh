/**
 * @file
 * Multi-core machine model: N tenant processes scheduled onto M cores.
 *
 * Decomposition: each *core* owns the private
 * hardware a context switch cannot swap out — L1/L2 caches, MSHRs and
 * the two-level TLB hierarchy — over one *shared* LLC (and DRAM
 * latency). Each *tenant* owns OS-side state (its System: page
 * tables, VMAs, allocators) plus, per core it may run on, a Machine
 * carrying the per-address-space translation machinery (PWCs, page
 * walkers, range registers, ASAP engines). A (tenant, core) Machine
 * borrows the core's memory/TLB hierarchies through Machine's
 * shared-structure constructor.
 *
 * Scheduling is a deterministic round-robin with rotation: in slot s,
 * core c runs active-tenant (s + c) mod |active|, each for a fixed
 * quantum of accesses. The rotation migrates tenants across cores
 * every slot, so TLB/PWC state genuinely spreads over multiple cores
 * — which is what makes inter-core shootdown real. Context switches
 * model CR3 effects: with PCID, the incoming tenant's ASID is loaded
 * and TLB entries survive tagged; without PCID, the core's TLB and
 * the incoming tenant's PWCs are flushed (counters preserved).
 *
 * Tenant physical address spaces overlap numerically (each System
 * allocates frames from its own buddy allocator), so per-tenant line
 * coloring (MemoryHierarchy::setLineBias) keeps them distinct in the
 * shared LLC: tenant t's lines are biased by (t << 40) + t * 0x9e37 —
 * the high part guarantees disjoint line ranges (lines are < 2^40 for
 * any modeled memory size), the odd low part spreads tenants across
 * LLC sets. Tenant 0's bias is 0, so a 1-core/1-tenant run is
 * bit-identical to the serial Simulator (tests/test_mc.cc pins this,
 * RunStats and counters included): each tenant's accesses run through
 * its own AccessStream (sim/simulator.hh), the loop Simulator::run
 * drives too.
 *
 * TLB shootdown follows the Linux mm_cpumask choreography: each
 * tenant tracks the set of cores it has run on since its entries
 * could last have been flushed there. A dyn-subsystem munmap/madvise
 * fires through a per-tenant ShootdownTarget proxy: the initiating
 * core invalidates locally for free (the INVLPG loop), every *other*
 * core in the mask takes an IPI — the initiator pays
 * ipiSendLatency per target plus one ipiWaitLatency for the acks, the
 * remote core pays ipiInterruptLatency and runs a targeted,
 * ASID-tagged invalidateRange. All IPI cycles — including the remote
 * interrupt time — are *attributed to the initiating tenant* (the
 * scheduler-boundary attribution fix: shootdown cost must not smear
 * across victim streams), while the remote core's clock still
 * advances, so the disturbance to co-located tenants remains modeled.
 */

#ifndef ASAP_MC_MULTICORE_HH
#define ASAP_MC_MULTICORE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "sim/machine.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
#include "tlb/tlb.hh"
#include "workloads/workload.hh"

namespace asap::obs
{
class Timeline;
} // namespace asap::obs

namespace asap::mc
{

/** Scheduler shape of a multi-core run. */
struct McConfig
{
    unsigned cores = 1;
    /** Accesses a tenant runs per scheduling slot on a core. Any
     *  value yields the same per-tenant RunStats on one core/one
     *  tenant (batch boundaries are stats-neutral); it decides how
     *  interleaved the multi-tenant contention is. */
    std::uint64_t quantum = 8192;
    /** PCID-style ASID tagging: TLB entries survive context switches.
     *  Off = full TLB + PWC flush on every switch (legacy CR3). */
    bool pcid = true;
    /** Direct cost of a context switch on the core's clock. */
    Cycles switchCycles = 250;
};

/** Per-core scheduler/shootdown counters (mc.core<i>.* in sweeps). */
struct CoreStats
{
    std::uint64_t switches = 0;          ///< real tenant changes
    std::uint64_t ipisReceived = 0;
    Cycles ipiInterruptCycles = 0;       ///< time lost to remote IPIs
    std::uint64_t tlbShootdownDropped = 0;
    std::uint64_t pwcShootdownDropped = 0;
};

/** Per-tenant IPI attribution: every cycle a tenant's shootdowns cost
 *  anywhere in the machine lands here, on the initiator. */
struct TenantStats
{
    std::uint64_t shootdowns = 0;        ///< shootdown events initiated
    std::uint64_t ipisSent = 0;          ///< remote cores interrupted
    Cycles ipiSendWaitCycles = 0;        ///< initiator-side send + wait
    Cycles ipiRemoteCycles = 0;          ///< remote interrupt time, attributed
    Cycles switchInCycles = 0;           ///< context-switch cost absorbed
};

/** Everything a multi-core run produces. */
struct McResult
{
    /** Mergeable fields summed over tenants; counters assembled
     *  structurally (shared LLC counted once). On one core/one tenant
     *  this is bit-identical to the serial Simulator's RunStats. */
    RunStats aggregate;
    std::vector<RunStats> tenants;
    std::vector<TenantStats> tenantMc;
    std::vector<CoreStats> coreMc;
    std::uint64_t slots = 0;
    Cycles maxCoreCycle = 0;
};

class MultiCoreSimulator
{
  public:
    MultiCoreSimulator(const McConfig &mcConfig,
                       const MachineConfig &machineConfig);
    ~MultiCoreSimulator();

    /**
     * Register a tenant process: its OS state (@p system) and access
     * stream (@p workload), both caller-owned and outliving this
     * simulator. Builds one Machine per core immediately (eager and
     * deterministic — construction order never depends on
     * scheduling). @return the tenant index (== its ASID).
     */
    unsigned addTenant(System &system, Workload &workload);

    /** Run every tenant through warmup + measure phases of
     *  @p config under the slot scheduler. One-shot. */
    McResult run(const RunConfig &config);

    void attachTraceSink(obs::TraceSink *sink);
    void attachTimeline(obs::Timeline *timeline);

    unsigned cores() const { return static_cast<unsigned>(cores_.size()); }
    unsigned tenants() const
    { return static_cast<unsigned>(tenants_.size()); }

    // -- Introspection (tests, tools) ----------------------------------

    TlbHierarchy &coreTlb(unsigned core);
    MemoryHierarchy &coreMem(unsigned core);
    Machine &machineOf(unsigned tenant, unsigned core);

    /**
     * Full-address-space IPI shootdown initiated by @p tenant from the
     * core it last ran on: every core in its presence mask drops every
     * one of its TLB/PWC entries, remote ones at IPI cost. The
     * differential test pins this against Machine::flush — identical
     * end state, identical drop counts.
     */
    Machine::InvalidateCounts shootdownAll(unsigned tenant);

    /** The line-coloring bias tenant @p tenant carries in the shared
     *  LLC (0 for tenant 0). */
    static std::uint64_t lineBiasOf(unsigned tenant);

  private:
    friend class TenantShootdownProxy;

    struct Core
    {
        std::unique_ptr<MemoryHierarchy> mem;
        std::unique_ptr<TlbHierarchy> tlb;
        Cycles now = 0;
        int runningTenant = -1;
        CoreStats stats;
    };

    struct Tenant
    {
        System *system = nullptr;
        Workload *workload = nullptr;
        /** One Machine per core, sharing that core's mem/TLB. */
        std::vector<std::unique_ptr<Machine>> machines;
        std::unique_ptr<ShootdownTarget> proxy;
        /** The tenant's accesses, RNGs and RunStats; built by run(). */
        std::optional<AccessStream> stream;
        TenantStats mcStats;

        /** mm_cpumask: cores that may hold this tenant's TLB/PWC
         *  state (conservative; bits clear on no-PCID flushes). */
        std::uint64_t presence = 0;
        unsigned lastCore = 0;
    };

    void switchIn(unsigned core, unsigned tenant);

    /** ShootdownTarget fan-out for @p tenant (see file comment). */
    Machine::InvalidateCounts
    tenantShootdown(unsigned tenant, VirtAddr start, VirtAddr end);
    void tenantRefresh(unsigned tenant);

    /** Finalize one tenant's RunStats (the stream's finish, engine
     *  sums, per-tenant counters). */
    void finalizeTenant(unsigned tenant);

    /** The aggregate counter list, serial-ordered: per-core sums,
     *  shared LLC once, translation sums, system + dyn sums; mc.*
     *  extras appended only on a genuinely multi-core/multi-tenant
     *  shape (so 1x1 stays bit-identical to the serial list). */
    obs::Counters collectAggregateCounters() const;
    obs::Counters collectGauges() const;
    Cycles maxCoreNow() const;

    McConfig mcConfig_;
    MachineConfig machineConfig_;
    std::unique_ptr<Cache> sharedLlc_;
    std::vector<Core> cores_;
    std::vector<std::unique_ptr<Tenant>> tenants_;
    obs::TraceSink *sink_ = nullptr;
    obs::Timeline *timeline_ = nullptr;
    std::uint64_t slots_ = 0;
    bool ran_ = false;
};

} // namespace asap::mc

#endif // ASAP_MC_MULTICORE_HH
