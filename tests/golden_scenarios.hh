/**
 * @file
 * Fixed-seed golden scenarios shared by the refactor-safety tests
 * (tests/test_sim.cc, suite Golden) and the literal generator
 * (examples/golden_dump.cpp).
 *
 * The scenarios pin the complete observable behaviour of the simulator
 * core — TLB hit/miss counts, walk-latency accumulators, per-level
 * serving distributions, cycle totals and ASAP engine counters — for
 * one small workload across the paper's structurally distinct
 * configurations. Hot-path refactors must reproduce every value
 * bit-identically; regenerate the literals with golden_dump only for
 * *intentional* model changes.
 *
 * Scenario construction deliberately bypasses Environment so that
 * ASAP_QUICK scaling cannot perturb the pinned workload.
 */

#ifndef ASAP_TESTS_GOLDEN_SCENARIOS_HH
#define ASAP_TESTS_GOLDEN_SCENARIOS_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "sim/environment.hh"
#include "sim/machine.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
#include "workloads/dynamic.hh"
#include "workloads/synthetic.hh"

namespace asap::golden
{

/** The pinned workload: small enough to run in milliseconds, big enough
 *  to exercise TLB misses, walks, faults-at-warmup and prefetches. */
inline WorkloadSpec
goldenSpec()
{
    WorkloadSpec spec;
    spec.name = "golden";
    spec.paperGb = 1.0;
    spec.residentPages = 20'000;
    spec.dataVmas = 2;
    spec.smallVmas = 4;
    spec.cyclesPerAccess = 3;
    spec.windowFraction = 0.6;
    spec.windowPages = 2'000;
    spec.nearFraction = 0.1;
    spec.linesPerPage = 2;
    spec.burstContinueProb = 0.5;
    spec.machineMemBytes = 1_GiB;
    spec.guestMemBytes = 256_MiB;
    return spec;
}

struct Scenario
{
    std::string name;
    EnvironmentOptions env;
    MachineConfig machine;
    bool colocation = false;
    /** Ideal-TLB run (RunConfig::perfectTlb). */
    bool perfectTlb = false;
    /** OS-event profile wrapped around goldenSpec() ("" = static). */
    std::string dynProfile;
};

/** Native / virtualized / clustered / hugepage / colocation coverage. */
inline std::vector<Scenario>
goldenScenarios()
{
    std::vector<Scenario> scenarios;

    Scenario native;
    native.name = "native";
    scenarios.push_back(native);

    Scenario nativeAsap;
    nativeAsap.name = "native_asap";
    nativeAsap.env.asapPlacement = true;
    nativeAsap.machine = makeMachineConfig(AsapConfig::p1p2());
    scenarios.push_back(nativeAsap);

    Scenario virt;
    virt.name = "virt_2d";
    virt.env.virtualized = true;
    scenarios.push_back(virt);

    Scenario hugepage;
    hugepage.name = "virt_hugepage_asap";
    hugepage.env.virtualized = true;
    hugepage.env.hostHugePages = true;
    hugepage.env.asapPlacement = true;
    hugepage.machine = makeMachineConfig(AsapConfig::p1p2(),
                                         AsapConfig::p2());
    scenarios.push_back(hugepage);

    Scenario clustered;
    clustered.name = "clustered_l2";
    clustered.machine.tlb.clusteredL2 = true;
    scenarios.push_back(clustered);

    Scenario coloc;
    coloc.name = "coloc_asap";
    coloc.env.asapPlacement = true;
    coloc.machine = makeMachineConfig(AsapConfig::p1p2());
    coloc.colocation = true;
    scenarios.push_back(coloc);

    return scenarios;
}

/**
 * Run shapes pinned apart from goldenScenarios(), whose every entry
 * ZeroEvents.GoldenScenariosBitIdentical re-runs under its own
 * never-firing churn: the perfect-TLB run and a firing churn run.
 */
inline std::vector<Scenario>
extraScenarios()
{
    std::vector<Scenario> scenarios;

    Scenario perfect;
    perfect.name = "perfect_tlb_native_asap";
    perfect.env.asapPlacement = true;
    perfect.machine = makeMachineConfig(AsapConfig::p1p2());
    perfect.perfectTlb = true;
    scenarios.push_back(perfect);

    Scenario churn;
    churn.name = "churn_tenants_asap";
    churn.env.asapPlacement = true;
    churn.machine = makeMachineConfig(AsapConfig::p1p2());
    churn.dynProfile = "tenants";
    scenarios.push_back(churn);

    return scenarios;
}

inline RunConfig
goldenRunConfig(bool colocation)
{
    RunConfig run;
    run.warmupAccesses = 4'000;
    run.measureAccesses = 16'000;
    run.colocation = colocation;
    run.corunnerPerAccess = 3;
    run.seed = 7;
    return run;
}

/** Run one scenario from a fresh System (no ASAP_QUICK interference). */
inline RunStats
runScenario(const Scenario &scenario)
{
    const WorkloadSpec spec =
        scenario.dynProfile.empty()
            ? goldenSpec()
            : withDynamics(goldenSpec(), scenario.dynProfile, 1.0, 3'000);
    System system(makeSystemConfig(spec, scenario.env));
    const std::unique_ptr<Workload> workload = makeWorkload(spec);
    workload->setup(system);
    Machine machine(system, scenario.machine);
    Simulator simulator(system, machine, *workload);
    RunConfig run = goldenRunConfig(scenario.colocation);
    run.perfectTlb = scenario.perfectTlb;
    return simulator.run(run);
}

/** Everything the golden tests pin, flattened to integers. */
struct Expect
{
    std::uint64_t tlbL1Hits, tlbL2Hits, tlbMisses, faults;
    std::uint64_t walkCount, walkSum, walkMin, walkMax;
    std::uint64_t totalCycles, walkCycles, dataCycles, computeCycles;
    /** levelDist[1..5].total() — walk requests per PT level. */
    std::array<std::uint64_t, 5> levelTotal;
    /** levelDist[1..5].count(Pwc) and .count(Dram). */
    std::array<std::uint64_t, 5> levelPwc;
    std::array<std::uint64_t, 5> levelDram;
    std::uint64_t appTriggers, appRangeHits, appAttempted, appIssued;
    std::uint64_t hostIssued;
};

inline Expect
flatten(const RunStats &stats)
{
    Expect e{};
    e.tlbL1Hits = stats.tlbL1Hits;
    e.tlbL2Hits = stats.tlbL2Hits;
    e.tlbMisses = stats.tlbMisses;
    e.faults = stats.faults;
    e.walkCount = stats.walkLatency.count();
    e.walkSum = stats.walkLatency.sum();
    e.walkMin = stats.walkLatency.min();
    e.walkMax = stats.walkLatency.max();
    e.totalCycles = stats.totalCycles;
    e.walkCycles = stats.walkCycles;
    e.dataCycles = stats.dataCycles;
    e.computeCycles = stats.computeCycles;
    for (unsigned level = 1; level <= 5; ++level) {
        e.levelTotal[level - 1] = stats.levelDist[level].total();
        e.levelPwc[level - 1] = stats.levelDist[level].count(MemLevel::Pwc);
        e.levelDram[level - 1] =
            stats.levelDist[level].count(MemLevel::Dram);
    }
    e.appTriggers = stats.appAsap.triggers;
    e.appRangeHits = stats.appAsap.rangeHits;
    e.appAttempted = stats.appAsap.attempted;
    e.appIssued = stats.appAsap.issued;
    e.hostIssued = stats.hostAsap.issued;
    return e;
}

/** RunStats::dyn, field by field in declaration order. */
inline std::array<std::uint64_t, 16>
flattenDyn(const RunStats &stats)
{
    const OsDynStats &d = stats.dyn;
    return {d.events, d.mmaps, d.munmaps, d.minorFaults, d.madviseFrees,
            d.extends, d.churnReleases, d.dataPagesFreed, d.ptNodesFreed,
            d.churnFramesReleased, d.tlbInvalidated, d.pwcInvalidated,
            d.regionGrowthHoles, d.regionRelocations, d.regionsReleased,
            d.regionFramesReleased};
}

} // namespace asap::golden

#endif // ASAP_TESTS_GOLDEN_SCENARIOS_HH
