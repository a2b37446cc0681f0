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
 *
 * Tests compare a run against pinned literals with expectSameDigest and
 * two runs with each other with expectSameStats (every RunStats part).
 */

#ifndef ASAP_TESTS_GOLDEN_SCENARIOS_HH
#define ASAP_TESTS_GOLDEN_SCENARIOS_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

// examples/golden_dump prints the literals without linking gtest.
#if __has_include(<gtest/gtest.h>)
#include <gtest/gtest.h>
#define ASAP_GOLDEN_HAVE_GTEST 1
#endif

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

#ifdef ASAP_GOLDEN_HAVE_GTEST
/** Every field of a golden digest against a pinned literal. */
inline void
expectSameDigest(const Expect &got, const Expect &want)
{
    EXPECT_EQ(got.tlbL1Hits, want.tlbL1Hits);
    EXPECT_EQ(got.tlbL2Hits, want.tlbL2Hits);
    EXPECT_EQ(got.tlbMisses, want.tlbMisses);
    EXPECT_EQ(got.faults, want.faults);
    EXPECT_EQ(got.walkCount, want.walkCount);
    EXPECT_EQ(got.walkSum, want.walkSum);
    EXPECT_EQ(got.walkMin, want.walkMin);
    EXPECT_EQ(got.walkMax, want.walkMax);
    EXPECT_EQ(got.totalCycles, want.totalCycles);
    EXPECT_EQ(got.walkCycles, want.walkCycles);
    EXPECT_EQ(got.dataCycles, want.dataCycles);
    EXPECT_EQ(got.computeCycles, want.computeCycles);
    EXPECT_EQ(got.levelTotal, want.levelTotal);
    EXPECT_EQ(got.levelPwc, want.levelPwc);
    EXPECT_EQ(got.levelDram, want.levelDram);
    EXPECT_EQ(got.appTriggers, want.appTriggers);
    EXPECT_EQ(got.appRangeHits, want.appRangeHits);
    EXPECT_EQ(got.appAttempted, want.appAttempted);
    EXPECT_EQ(got.appIssued, want.appIssued);
    EXPECT_EQ(got.hostIssued, want.hostIssued);
}

/** Two runs bit-identical in every RunStats part; a failure prints
 *  RunStats::diff, one line per differing field. */
inline void
expectSameStats(const RunStats &a, const RunStats &b,
                const std::string &what)
{
    std::string report;
    for (const std::string &line : a.diff(b))
        report += "\n  " + line;
    EXPECT_TRUE(report.empty()) << what << report;
}
#endif

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

// ---------------------------------------------------------------------------
// System digests: where every frame of a built System landed.
//
// RunStats depend on frame placement only through cache indexing, so a
// placement change can hide behind a lucky Golden. The digests pin the
// placement itself: every page-table entry in slab order, the VMA and
// ASAP-region layout, the OS counters, a relocating region growth, and
// the allocation order the buddy free lists hand out next.
// ---------------------------------------------------------------------------

/** Order-sensitive 64-bit FNV-1a accumulator. */
class Fnv
{
  public:
    void
    add(std::uint64_t value)
    {
        for (unsigned byte = 0; byte < 8; ++byte)
            mix(static_cast<std::uint8_t>(value >> (8 * byte)));
    }

    void
    add(const std::string &text)
    {
        add(text.size());
        for (const char c : text)
            mix(static_cast<std::uint8_t>(c));
    }

    std::uint64_t value() const { return hash_; }

  private:
    void
    mix(std::uint8_t byte)
    {
        hash_ = (hash_ ^ byte) * 0x100000001b3ull;
    }

    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** One built System, split so a mismatch says which part moved. */
struct SystemDigest
{
    std::uint64_t pageTables;   ///< every app and host slab node
    std::uint64_t layout;       ///< VMAs, ASAP regions, descriptors
    std::uint64_t counters;     ///< registerCounters + host space counts
    std::uint64_t growth;       ///< after growing and touching the heaps
    std::uint64_t frames;       ///< the next 4096 allocations per buddy

    bool
    operator==(const SystemDigest &other) const
    {
        return pageTables == other.pageTables && layout == other.layout &&
               counters == other.counters && growth == other.growth &&
               frames == other.frames;
    }
};

/** A workload build pinned by a SystemDigest. */
struct SystemShape
{
    std::string name;
    WorkloadSpec spec;
    EnvironmentOptions env;
};

/**
 * Every suite workload at quick size x {native, virt} x {placement off,
 * on}, plus the three environment variants that change how faults are
 * served: 2MB host pages, pinned pages with region holes, and 5-level
 * tables.
 */
inline std::vector<SystemShape>
systemShapes()
{
    std::vector<SystemShape> shapes;
    for (const WorkloadSpec &full : standardSuite()) {
        const WorkloadSpec spec = scaledDown(full, quickScaleDivisor);
        for (const bool virtualized : {false, true}) {
            for (const bool asap : {false, true}) {
                SystemShape shape;
                shape.name = spec.name + (virtualized ? "_virt" : "_native") +
                             (asap ? "_asap" : "");
                shape.spec = spec;
                shape.env.virtualized = virtualized;
                shape.env.asapPlacement = asap;
                shapes.push_back(shape);
            }
        }
    }
    const WorkloadSpec mcf = scaledDown(mcfSpec(), quickScaleDivisor);

    SystemShape hugePages{"mcf_virt_asap_hosthuge", mcf, {}};
    hugePages.env.virtualized = true;
    hugePages.env.asapPlacement = true;
    hugePages.env.hostHugePages = true;
    shapes.push_back(hugePages);

    SystemShape pinned{"mcf_native_asap_pinned_holes", mcf, {}};
    pinned.env.asapPlacement = true;
    pinned.env.pinnedProb = 0.3;
    pinned.env.holeFraction = 0.2;
    shapes.push_back(pinned);

    SystemShape fiveLevel{"mcf_virt_asap_5level", mcf, {}};
    fiveLevel.env.virtualized = true;
    fiveLevel.env.asapPlacement = true;
    fiveLevel.env.ptLevels = 5;
    fiveLevel.env.hostPtLevels = 5;
    shapes.push_back(fiveLevel);
    return shapes;
}

inline void
digestPageTable(Fnv &fnv, const PageTable &pt)
{
    const std::uint64_t slab = pt.nodeCount() + pt.deadNodeCount();
    fnv.add(slab);
    for (std::uint64_t index = 0; index < slab; ++index) {
        const PtNode &node = pt.nodeAt(static_cast<PtNodeIndex>(index));
        fnv.add(node.pfn);
        fnv.add(node.level);
        fnv.add(node.populated);
        for (unsigned slot = 0; slot < entriesPerNode; ++slot) {
            fnv.add(node.entries[slot].raw());
            fnv.add(node.children[slot]);
        }
    }
}

inline void
digestVmas(Fnv &fnv, const AddressSpace &space)
{
    for (const Vma *vma : space.vmas().all()) {
        fnv.add(vma->id);
        fnv.add(vma->start);
        fnv.add(vma->end);
        fnv.add(vma->name);
        fnv.add(vma->prefetchable);
        fnv.add(vma->touchedPages);
    }
}

inline void
digestRegions(Fnv &fnv, const AsapPtAllocator *asap)
{
    if (!asap)
        return;
    for (const AsapPtAllocator::Region *region : asap->regions()) {
        fnv.add(region->vmaId);
        fnv.add(region->level);
        fnv.add(region->vaBase);
        fnv.add(region->vaEnd);
        fnv.add(region->basePfn);
        fnv.add(region->slots);
        fnv.add(region->backedSlots);
        fnv.add(region->usedSlots);
    }
    fnv.add(asap->reservedFrames());
    fnv.add(asap->fallbackAllocs());
    fnv.add(asap->regionAllocs());
    fnv.add(asap->failedReservations());
    fnv.add(asap->holesCreatedByGrowth());
    fnv.add(asap->framesRelocatedForGrowth());
}

inline void
digestDescriptors(Fnv &fnv, const std::vector<VmaDescriptor> &descriptors)
{
    for (const VmaDescriptor &d : descriptors) {
        fnv.add(d.start);
        fnv.add(d.end);
        for (const LevelDescriptor &level : d.levels) {
            fnv.add(level.valid);
            fnv.add(level.level);
            fnv.add(level.vaBase);
            fnv.add(level.basePa);
        }
    }
}

inline void
digestLayout(Fnv &fnv, System &system)
{
    digestVmas(fnv, system.appSpace());
    digestRegions(fnv, system.appAsapAllocator());
    digestDescriptors(fnv, system.appDescriptors());
    if (system.virtualized()) {
        digestVmas(fnv, system.hostSpace());
        digestRegions(fnv, system.hostAsapAllocator());
        digestDescriptors(fnv, system.hostDescriptors());
    }
}

inline std::uint64_t
digestCounters(System &system)
{
    Fnv fnv;
    obs::Registry registry;
    system.registerCounters(registry);
    for (const auto &[name, value] : registry.snapshot()) {
        fnv.add(name);
        fnv.add(value);
    }
    if (system.virtualized()) {
        fnv.add(system.hostSpace().pageFaults());
        fnv.add(system.hostSpace().touchedPages());
        fnv.add(system.hostSpace().relocations());
    }
    return fnv.value();
}

/** The next 4096 single-frame allocations, then the free-list summary. */
inline void
digestAllocations(Fnv &fnv, BuddyAllocator &buddy)
{
    for (unsigned i = 0; i < 4096; ++i)
        fnv.add(buddy.allocFrame());
    fnv.add(buddy.freeFrames());
    fnv.add(static_cast<std::uint64_t>(buddy.largestFreeOrder() + 1));
    fnv.add(buddy.fragmentationPermille());
}

/**
 * Digest a built System. Destructive: after the static parts are
 * hashed, every prefetchable VMA grows by 64MB (relocating movable data
 * frames out of the way of its ASAP regions) and faults 1024 pages of
 * the new tail, and then each buddy hands out 4096 frames.
 */
inline SystemDigest
digestSystem(System &system)
{
    SystemDigest digest{};
    Fnv pageTables;
    digestPageTable(pageTables, system.appPt());
    if (system.virtualized())
        digestPageTable(pageTables, system.hostPt());
    digest.pageTables = pageTables.value();

    Fnv layout;
    digestLayout(layout, system);
    digest.layout = layout.value();
    digest.counters = digestCounters(system);

    std::vector<std::pair<std::uint64_t, VirtAddr>> heaps;
    for (const Vma *vma : system.appSpace().vmas().all()) {
        if (vma->prefetchable)
            heaps.emplace_back(vma->id, vma->end);
    }
    Fnv growth;
    for (const auto &[id, oldEnd] : heaps) {
        const bool grown = system.extendVma(id, 64_MiB);
        growth.add(grown);
        if (!grown)
            continue;
        for (std::uint64_t page = 0; page < 1024; ++page)
            system.touch(oldEnd + page * pageSize);
    }
    digestPageTable(growth, system.appPt());
    if (system.virtualized())
        digestPageTable(growth, system.hostPt());
    digestLayout(growth, system);
    growth.add(digestCounters(system));
    digest.growth = growth.value();

    Fnv frames;
    digestAllocations(frames, system.machineFrames());
    if (system.virtualized())
        digestAllocations(frames, system.appSpace().frames());
    digest.frames = frames.value();
    return digest;
}

/** Build @p shape the way Environment does, minus ASAP_QUICK. */
inline SystemDigest
buildAndDigest(const SystemShape &shape)
{
    System system(makeSystemConfig(shape.spec, shape.env));
    makeWorkload(shape.spec)->setup(system);
    return digestSystem(system);
}

} // namespace asap::golden

#endif // ASAP_TESTS_GOLDEN_SCENARIOS_HH
