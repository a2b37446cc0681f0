/**
 * @file
 * The trace-driven simulation loop and its statistics, following the
 * paper's methodology (Section 4): for every workload access, look up
 * the TLBs; on a miss, perform the (possibly nested) page walk with
 * latencies summed along the serial pointer chase; optionally interleave
 * one random co-runner access per workload access (SMT colocation).
 *
 * The execution-time model — used for Figure 2 / Table 1 / Table 6 —
 * charges per access: the workload's compute cycles, the data-access
 * latency, and the full walk latency on a TLB miss.
 *
 * AccessStream is the one loop that does this. Simulator::run drives a
 * single stream on a single Machine; the multi-core model (src/mc)
 * drives one stream per tenant, a scheduling quantum at a time, on the
 * Machine of whichever core the tenant runs.
 */

#ifndef ASAP_SIM_SIMULATOR_HH
#define ASAP_SIM_SIMULATOR_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dyn/dynamics.hh"
#include "dyn/os_events.hh"
#include "obs/histogram.hh"
#include "obs/profile.hh"
#include "obs/registry.hh"
#include "sim/machine.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"

namespace asap
{

namespace obs
{
class Timeline;
}

class AsapPtAllocator;

struct RunConfig
{
    std::uint64_t warmupAccesses = 100'000;
    std::uint64_t measureAccesses = 500'000;
    bool colocation = false;
    /** Co-runner memory accesses per workload access. The paper issues
     *  one request per application access; the co-runner being a pure
     *  memory-bound SMT thread, higher ratios model its higher memory
     *  intensity while the app stalls on compute/misses. */
    unsigned corunnerPerAccess = 1;
    /** Ideal-TLB run: no misses, no walks (Table 6 methodology). */
    bool perfectTlb = false;
    std::uint64_t seed = 7;
};

/** Lifetime counters of one ASAP engine over a run (incl. warmup). */
struct AsapEngineStats
{
    std::uint64_t triggers = 0;    ///< walk starts seen
    std::uint64_t rangeHits = 0;   ///< range-register matches
    std::uint64_t attempted = 0;   ///< per-level prefetches attempted
    std::uint64_t issued = 0;      ///< accepted by the hierarchy

    struct Field
    {
        const char *name;
        std::uint64_t AsapEngineStats::*member;
    };
    /** Every field in declaration order: the one table behind merge(),
     *  RunStats::diff() and the journal's engine objects. */
    static const std::array<Field, 4> &fields();

    /** The lifetime counters of @p engine (all zero for nullptr, i.e.
     *  ASAP off in that dimension). */
    static AsapEngineStats
    of(const AsapEngine *engine)
    {
        AsapEngineStats s;
        if (engine) {
            s.triggers = engine->triggers();
            s.rangeHits = engine->rangeHits();
            s.attempted = engine->attempted();
            s.issued = engine->issued();
        }
        return s;
    }

    /** Add @p other field by field (every field is a sum). */
    void
    merge(const AsapEngineStats &other)
    {
        for (const Field &f : fields())
            this->*f.member += other.*f.member;
    }
};

struct RunStats
{
    std::uint64_t accesses = 0;
    std::uint64_t tlbL1Hits = 0;
    std::uint64_t tlbL2Hits = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t faults = 0;

    SampleStat walkLatency;
    /** Per-PT-level serving distribution (1D walks; Figure 9). */
    std::array<LevelDistribution, 6> levelDist{};

    /** Full walk-latency distribution (p50/p90/p99/p99.9; Figure 3's
     *  shape, which the SampleStat mean cannot carry). */
    obs::Histogram walkHist;
    /** Data-access (non-walk) latency distribution. */
    obs::Histogram dataHist;
    /** Cycles each PT level contributed to the serial chase (1D walks;
     *  the distribution behind Figure 9's mean shares). */
    std::array<obs::Histogram, 6> levelHist{};

    std::uint64_t totalCycles = 0;
    std::uint64_t walkCycles = 0;
    std::uint64_t dataCycles = 0;
    std::uint64_t computeCycles = 0;

    /** Prefetch-engine effectiveness (zero when ASAP is off). */
    AsapEngineStats appAsap;
    AsapEngineStats hostAsap;

    /** OS-dynamics activity (all zero for static runs; see
     *  dyn/os_events.hh). */
    OsDynStats dyn;

    /** End-of-run snapshot of every registered component counter
     *  (obs::Registry; machine + system + dyn.*), in registration
     *  order. Deterministic — safe for CSV columns. */
    obs::Counters counters;

    /** Wall-clock self-profile (nondeterministic; JSON artifacts
     *  only, never compared). */
    obs::SelfProfile profile;

    double
    avgWalkLatency() const
    {
        return walkLatency.mean();
    }

    /** L2-TLB misses per kilo-access (the paper's MPKI proxy). */
    double
    mpka() const
    {
        return accesses == 0 ? 0.0
                             : 1000.0 * static_cast<double>(tlbMisses) /
                                   static_cast<double>(accesses);
    }

    /** L2 S-TLB miss ratio (misses / L1-miss lookups). */
    double
    l2MissRatio() const
    {
        const std::uint64_t l2Lookups = tlbL2Hits + tlbMisses;
        return l2Lookups == 0 ? 0.0
                              : static_cast<double>(tlbMisses) /
                                    static_cast<double>(l2Lookups);
    }

    /** Fraction of execution time spent in page walks (Figure 2). */
    double
    walkCycleFraction() const
    {
        return totalCycles == 0
                   ? 0.0
                   : static_cast<double>(walkCycles) /
                         static_cast<double>(totalCycles);
    }

    /**
     * Call @p f(name, a.part, b.part) for every part of the RunStats
     * @p a and @p b, in the journal's key order: the one list that
     * merge(), diff() (two runs) and the journal codec (one run passed
     * twice) walk. profile is not a part: it is wall-clock, never
     * journaled and never compared.
     */
    template <typename A, typename B, typename F>
    static void
    forEachPart(A &a, B &b, F &&f)
    {
        f("accesses", a.accesses, b.accesses);
        f("tlbL1Hits", a.tlbL1Hits, b.tlbL1Hits);
        f("tlbL2Hits", a.tlbL2Hits, b.tlbL2Hits);
        f("tlbMisses", a.tlbMisses, b.tlbMisses);
        f("faults", a.faults, b.faults);
        f("totalCycles", a.totalCycles, b.totalCycles);
        f("walkCycles", a.walkCycles, b.walkCycles);
        f("dataCycles", a.dataCycles, b.dataCycles);
        f("computeCycles", a.computeCycles, b.computeCycles);
        f("walkLatency", a.walkLatency, b.walkLatency);
        f("levelDist", a.levelDist, b.levelDist);
        f("walkHist", a.walkHist, b.walkHist);
        f("dataHist", a.dataHist, b.dataHist);
        f("levelHist", a.levelHist, b.levelHist);
        f("appAsap", a.appAsap, b.appAsap);
        f("hostAsap", a.hostAsap, b.hostAsap);
        f("dyn", a.dyn, b.dyn);
        f("counters", a.counters, b.counters);
    }

    /**
     * Fold another run's statistics in. Every aggregate here is a sum of
     * per-access contributions, so merging is exact and associative:
     * counts/cycles add, SampleStat/LevelDistribution/obs::Histogram
     * merge bucket- and moment-wise, and the registered counter
     * snapshots — identical name lists for identically configured
     * machines — add positionally. The wall-clock self-profile is NOT
     * merged (merged runs' wall times overlap); callers time the whole
     * run themselves. Used by mc's per-tenant aggregate and by
     * simbench's tenant_churn check, which re-merges the tenants.
     */
    void merge(const RunStats &other);

    /** One line per field that differs from @p other, naming it and
     *  both values ("walkHist.b[17]: 3 vs 4"); empty when bit-identical. */
    std::vector<std::string> diff(const RunStats &other) const;
};

/**
 * One workload's access stream over a run: warmup, then measurement.
 * It owns the per-run state — the address and co-runner RNGs, the
 * streaming-detection last VA, the OS-event dynamics and the access
 * clock they fire against, the warmup/measure counts, the ASAP
 * region-lifecycle baseline, and the RunStats being filled — so any
 * caller can advance it in pieces, on any Machine over its System.
 *
 * How the budget is split never matters: workloads draw addresses one
 * at a time, so batch boundaries leave the draw order unchanged, and
 * OS events fire at exact access offsets.
 */
class AccessStream
{
  public:
    /**
     * Reset @p workload for a run of @p config from @p seed (the
     * co-runner stream derives from it). OS-event side effects go to
     * @p target. All references must outlive the stream.
     */
    AccessStream(System &system, Workload &workload,
                 ShootdownTarget &target, const RunConfig &config,
                 std::uint64_t seed);

    /**
     * Simulate up to @p budget more accesses of the stream on
     * @p machine, advancing its clock @p now; the warmup/measure
     * boundary may fall anywhere inside. @return the measured accesses
     * among them. Throws StatusError once the calling thread's armed
     * ScopedDeadline has passed, checked per batch.
     */
    std::uint64_t advance(Machine &machine, Cycles &now,
                          std::uint64_t budget);

    bool done() const { return warmupLeft_ + measureLeft_ == 0; }

    /** Fire the events due at the end of the stream, then fill in the
     *  region-lifecycle deltas and totalCycles. Call once, when done. */
    void finish(Cycles now);

    RunStats &stats() { return stats_; }
    const RunStats &stats() const { return stats_; }

    /** stats().dyn with the region-lifecycle counters as deltas since
     *  the stream began (what finish() stores; counters read it
     *  mid-run too). */
    OsDynStats dynStats() const;

  private:
    /** The app-dimension ASAP allocator's region-lifecycle counters. */
    struct RegionCounts
    {
        std::uint64_t holes = 0, relocated = 0, released = 0,
                      releasedFrames = 0;
    };
    RegionCounts regionCounts() const;

    System &system_;
    Workload &workload_;
    const RunConfig config_;

    Rng rng_;
    Rng corunnerRng_;
    const unsigned cpa_;
    VirtAddr lastVa_ = ~VirtAddr{0};

    OsDynamics dyn_;
    /** Accesses consumed so far (warmup + measure): the clock OS
     *  events fire against. */
    std::uint64_t consumed_ = 0;
    std::uint64_t warmupLeft_;
    std::uint64_t measureLeft_;

    const AsapPtAllocator *regions_;
    /** ASAP region-lifecycle counters are reported as this run's
     *  deltas from these. */
    const RegionCounts regionsAtStart_;

    RunStats stats_;
};

class Simulator
{
  public:
    Simulator(System &system, Machine &machine, Workload &workload)
        : system_(system), machine_(machine), workload_(workload)
    {}

    RunStats run(const RunConfig &config);

    /**
     * Attach (or detach, with nullptr) a time-resolved telemetry
     * probe (obs/timeline.hh). With a timeline attached, run() advances
     * the *measure* phase in epoch-sized steps and samples
     * counters/histograms/gauges at each boundary — the address
     * stream, every simulated event, and every RunStats bit are
     * identical to the unchunked run (workloads generate addresses
     * one at a time, so batch partitioning cannot change the draw
     * order; pinned against the Golden suite by
     * tests/test_timeline.cc). Detached (the default) costs nothing:
     * one null check per run, zero branches in the access loop.
     */
    void attachTimeline(obs::Timeline *timeline)
    { timeline_ = timeline; }

  private:
    System &system_;
    Machine &machine_;
    Workload &workload_;

    /** Null by default (zero-cost detached, like the trace sink). */
    obs::Timeline *timeline_ = nullptr;
};

} // namespace asap

#endif // ASAP_SIM_SIMULATOR_HH
