/**
 * @file
 * The microarchitectural side of a simulated machine: cache hierarchy,
 * two-level TLBs, split PWCs (per dimension under virtualization), the
 * page walker(s) and the ASAP engines, wired to a System.
 *
 * A Machine is constructed per experimental configuration (e.g. P1 vs
 * P1+P2) over a shared System, so the expensive OS-side state (page
 * tables, prefaulted footprints) is built once per placement policy.
 */

#ifndef ASAP_SIM_MACHINE_HH
#define ASAP_SIM_MACHINE_HH

#include <array>
#include <memory>
#include <optional>

#include "common/types.hh"
#include "core/asap_engine.hh"
#include "core/range_registers.hh"
#include "mem/hierarchy.hh"
#include "obs/registry.hh"
#include "obs/trace_sink.hh"
#include "sim/system.hh"
#include "tlb/tlb.hh"
#include "walk/nested_walker.hh"
#include "walk/pwc.hh"
#include "walk/walker.hh"

namespace asap
{

struct MachineConfig
{
    HierarchyConfig mem;
    TlbHierarchy::Config tlb;
    PwcConfig pwc;
    /** PWC capacity multiplier (ablation A1). */
    unsigned pwcScale = 1;

    /** ASAP in the application (native) / guest (virtualized) dimension. */
    AsapConfig appAsap = AsapConfig::off();
    /** ASAP in the host dimension (virtualized systems only). */
    AsapConfig hostAsap = AsapConfig::off();

    unsigned rangeRegisters = RangeRegisterFile::defaultCapacity;

    /**
     * Inter-processor-interrupt cost model for multi-core TLB
     * shootdowns (src/mc). A shootdown with R remote targets charges
     * the initiating core R * ipiSendLatency + ipiWaitLatency (send
     * each IPI, then wait for all acks) and each remote core
     * ipiInterruptLatency (take the interrupt, run the INVLPG loop).
     * Single-core runs never touch these.
     */
    Cycles ipiSendLatency = 150;
    Cycles ipiWaitLatency = 400;
    Cycles ipiInterruptLatency = 700;
};

/**
 * Where OsDynamics (dyn/dynamics.hh) directs the hardware side effects
 * of an OS event — translation shootdowns and range-descriptor
 * refreshes. A Machine is its own target; the multi-core model
 * (src/mc) substitutes a proxy that fans a tenant's shootdown out to
 * every core the tenant has run on, charging the IPI cost model along
 * the way. The OS-side mutation (System) is common to both.
 */
class ShootdownTarget
{
  public:
    /** Entries dropped by a targeted invalidation, per structure. */
    struct InvalidateCounts
    {
        std::uint64_t tlb = 0;
        std::uint64_t pwc = 0;
    };

    virtual ~ShootdownTarget() = default;

    /** The trace sink OS events / shootdowns are timestamped on
     *  (nullptr when tracing is off). */
    virtual obs::TraceSink *traceSink() const = 0;

    /** Shoot down the virtual range [@p start, @p end) in every
     *  translation structure the target spans. */
    virtual InvalidateCounts invalidateRange(VirtAddr start,
                                             VirtAddr end) = 0;

    /** Rebuild ASAP range descriptors after a VMA-layout change. */
    virtual void refreshDescriptors() = 0;
};

class Machine : public ShootdownTarget
{
  public:
    Machine(System &system, const MachineConfig &config);

    /**
     * Multi-core constructor: translation machinery privately owned,
     * but the memory hierarchy and TLB hierarchy borrowed from the
     * core this machine is scheduled onto (@p sharedMem / @p
     * sharedTlb, both outliving the Machine; either may be null to
     * own that part privately). The mc subsystem builds one Machine
     * per (tenant, core) pair over per-core shared structures.
     */
    Machine(System &system, const MachineConfig &config,
            MemoryHierarchy *sharedMem, TlbHierarchy *sharedTlb);

    /** Outcome of one address translation. */
    struct TranslateResult
    {
        TlbHitLevel tlbLevel = TlbHitLevel::Miss;
        bool walked = false;
        bool faulted = false;
        Cycles walkLatency = 0;
        Translation translation;
        /**
         * Per-PT-level serving breakdown (native 1D walks only;
         * Figure 9). Points into the Machine's walk scratch — valid
         * until the next translate() call; nullptr when no breakdown
         * exists (TLB hit, or a nested walk).
         */
        const WalkResult *walk = nullptr;
    };

    /**
     * Translate @p va at time @p now: TLB lookup, and on a miss a full
     * (possibly nested) page walk with ASAP prefetching if configured.
     * Page faults are serviced by the System and the walk is replayed.
     * The TLB-hit fast path is inline — it runs once per simulated
     * access; walks take the out-of-line miss path.
     */
    TranslateResult
    translate(VirtAddr va, Cycles now)
    {
        const TlbHierarchy::Result tlbRes = tlb_->lookup(va);
        if (tlbRes.hit()) {
            TranslateResult out;
            out.tlbLevel = tlbRes.level;
            out.translation = tlbRes.translation;
            return out;
        }
        return translateMiss(va, now);
    }

    /** A demand data access (cache pressure + latency, no TLB). */
    Cycles
    dataAccess(PhysAddr pa)
    {
        return mem_->accessPlain(pa).latency;
    }

    /** One co-runner access: a random line in machine memory
     *  (Section 4 "Workload colocation"). */
    void
    corunnerAccess(Rng &rng)
    {
        mem_->accessPlain(rng.below(system_.machineMemBytes()));
    }

    /** Rebuild range registers from current OS state (e.g. after VMA
     *  growth experiments). */
    void refreshDescriptors() override;

    /**
     * Targeted translation shootdown of the (guest-)virtual range
     * [@p start, @p end): TLBs and the application-dimension PWCs. The
     * OS issues this on munmap / madvise(DONTNEED) (dyn subsystem)
     * instead of a full flush. Host-dimension structures are untouched:
     * guest-side unmaps never invalidate host translations of
     * guest-physical memory (the hypervisor keeps its backing).
     */
    InvalidateCounts
    invalidateRange(VirtAddr start, VirtAddr end) override
    {
        InvalidateCounts counts;
        counts.tlb = tlb_->invalidateRange(start, end);
        counts.pwc = appPwc_.invalidateRange(start, end);
        return counts;
    }

    /**
     * Full translation flush: every TLB entry and every
     * application-dimension PWC entry is dropped, all hit/miss
     * counters kept — semantically invalidateRange over the whole
     * address space (the differential test in tests/test_mc.cc pins
     * the equivalence). This is the no-PCID CR3-reload effect of a
     * context switch in the multi-core model; host-dimension
     * structures survive, exactly as in invalidateRange().
     */
    void
    flush()
    {
        tlb_->flushEntries();
        appPwc_.flushEntries();
    }

    MemoryHierarchy &mem() { return *mem_; }
    TlbHierarchy &tlb() { return *tlb_; }
    PageWalkCaches &appPwc() { return appPwc_; }
    const AsapEngine *appEngine() const { return appEngine_.get(); }
    const AsapEngine *hostEngine() const { return hostEngine_.get(); }

    std::uint64_t walks() const;
    std::uint64_t faults() const { return faultsServiced_; }

    /**
     * Attach (or detach, with nullptr) a walk-event trace sink,
     * propagated to the memory hierarchy and the ASAP engines. The
     * TLB-hit fast path in translate() is untouched — spans are only
     * emitted from the out-of-line miss path, so an unattached (or
     * disabled) sink costs the hot path nothing.
     */
    void attachTraceSink(obs::TraceSink *sink);

    obs::TraceSink *traceSink() const override { return sink_; }

    /** Register this machine's component counters (caches, TLBs, PWCs,
     *  MSHRs, walkers, ASAP engines) under stable dotted names. */
    void registerCounters(obs::Registry &registry) const;

    /**
     * The core-scoped half of registerCounters(): cache, MSHR and TLB
     * counters, which in the multi-core model belong to a core's
     * shared structures rather than to any one tenant's machine.
     * Static so the mc subsystem can register a core's structures
     * without a Machine in hand; registerCounters() is exactly this
     * followed by registerTranslationCounters(), preserving the
     * single-core name order.
     */
    static void registerMemTlbCounters(obs::Registry &registry,
                                       const MemoryHierarchy &mem,
                                       const TlbHierarchy &tlb);

    /** The tenant-scoped half: PWCs, walker, range registers and ASAP
     *  engines — the state private to this Machine. */
    void registerTranslationCounters(obs::Registry &registry) const;

    const MachineConfig &config() const { return config_; }

  private:
    /** TLB-miss path of translate(): the (possibly nested) walk. */
    TranslateResult translateMiss(VirtAddr va, Cycles now);

    System &system_;
    MachineConfig config_;

    /** Result storage for the most recent native 1D walk (see
     *  TranslateResult::walk). */
    WalkResult walkScratch_;

    /** Privately-owned memory/TLB hierarchies; empty when the
     *  multi-core constructor shares a core's structures instead. */
    std::optional<MemoryHierarchy> memOwned_;
    std::optional<TlbHierarchy> tlbOwned_;
    /** The hierarchies in use: owned or shared (never null). */
    MemoryHierarchy *mem_ = nullptr;
    TlbHierarchy *tlb_ = nullptr;
    PageWalkCaches appPwc_;

    RangeRegisterFile appRegisters_;
    RangeRegisterFile hostRegisters_;
    std::unique_ptr<AsapEngine> appEngine_;
    std::unique_ptr<AsapEngine> hostEngine_;

    /** Native walker, or the host-dimension walker under virt. */
    std::optional<PageWalkCaches> hostPwc_;
    std::unique_ptr<PageWalker> nativeWalker_;
    std::unique_ptr<PageWalker> hostWalker_;
    std::unique_ptr<NestedWalker> nestedWalker_;

    std::uint64_t faultsServiced_ = 0;

    obs::TraceSink *sink_ = nullptr;
};

} // namespace asap

#endif // ASAP_SIM_MACHINE_HH
