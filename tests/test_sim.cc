/**
 * @file
 * Integration tests for src/sim + src/workloads: System construction,
 * Machine translation paths, Simulator statistics, determinism, and
 * the headline ASAP behaviours end-to-end (small scale).
 */

#include <cstdio>
#include <functional>
#include <map>

#include <gtest/gtest.h>

#include "golden_scenarios.hh"
#include "common/logging.hh"
#include "sim/environment.hh"
#include "sim/machine.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
#include "workloads/suite.hh"
#include "workloads/synthetic.hh"
#include "workloads/trace.hh"

using namespace asap;

namespace
{

/** A small, fast workload spec for integration tests. */
WorkloadSpec
tinySpec(bool zipf = false)
{
    WorkloadSpec spec;
    spec.name = "tiny";
    spec.paperGb = 1.0;
    spec.residentPages = 20'000;
    spec.dataVmas = 2;
    spec.smallVmas = 4;
    spec.cyclesPerAccess = 3;
    if (zipf) {
        spec.zipfTheta = 0.9;
    } else {
        spec.windowFraction = 0.6;
        spec.windowPages = 2'000;
        spec.nearFraction = 0.1;
    }
    spec.linesPerPage = 2;
    spec.burstContinueProb = 0.5;
    spec.machineMemBytes = 1_GiB;
    spec.guestMemBytes = 256_MiB;
    return spec;
}

RunConfig
tinyRun(bool colocation = false)
{
    RunConfig config;
    config.warmupAccesses = 5'000;
    config.measureAccesses = 20'000;
    config.colocation = colocation;
    config.corunnerPerAccess = 3;
    return config;
}

} // namespace

TEST(System, NativeConstruction)
{
    SystemConfig config;
    config.machineMemBytes = 256_MiB;
    System system(config);
    EXPECT_FALSE(system.virtualized());
    EXPECT_EQ(system.appPt().levels(), 4u);
    EXPECT_TRUE(system.appDescriptors().empty());   // baseline placement
}

TEST(System, AsapPlacementYieldsDescriptors)
{
    SystemConfig config;
    config.machineMemBytes = 256_MiB;
    config.asapPlacement = true;
    System system(config);
    system.mmap(8_MiB, "heap", true);
    const auto descriptors = system.appDescriptors();
    ASSERT_EQ(descriptors.size(), 1u);
    EXPECT_TRUE(descriptors[0].levels[1].valid);
    EXPECT_TRUE(descriptors[0].levels[2].valid);
}

TEST(System, DescriptorAddressesMatchWalkerView)
{
    SystemConfig config;
    config.machineMemBytes = 256_MiB;
    config.asapPlacement = true;
    System system(config);
    const auto id = system.mmap(8_MiB, "heap", true);
    const VirtAddr base = system.appSpace().vmas().byId(id)->start;
    system.touch(base + 0x5000);
    const auto descriptors = system.appDescriptors();
    const auto t = system.appSpace().translate(base + 0x5000);
    EXPECT_EQ(descriptors[0].levels[1].entryAddrOf(base + 0x5000),
              t->pteAddr);
}

TEST(System, VirtualizedHostVmaCoversGuest)
{
    SystemConfig config;
    config.virtualized = true;
    config.machineMemBytes = 512_MiB;
    config.guestMemBytes = 128_MiB;
    System system(config);
    EXPECT_EQ(system.hostSpace().vmas().size(), 1u);
    const Vma *vm = system.hostSpace().vmas().all()[0];
    EXPECT_EQ(vm->start, 0u);
    EXPECT_EQ(vm->sizeBytes(), 128_MiB);
    EXPECT_TRUE(vm->prefetchable);
}

TEST(System, HostDescriptorsForVirtualizedAsap)
{
    SystemConfig config;
    config.virtualized = true;
    config.asapPlacement = true;
    config.machineMemBytes = 512_MiB;
    config.guestMemBytes = 128_MiB;
    System system(config);
    const auto hostDescriptors = system.hostDescriptors();
    ASSERT_EQ(hostDescriptors.size(), 1u);
    // The host tracks the whole VM as one range (Section 3.6).
    EXPECT_EQ(hostDescriptors[0].start, 0u);
    EXPECT_EQ(hostDescriptors[0].end, 128_MiB);
}

TEST(Machine, TlbHitAfterWalk)
{
    SystemConfig config;
    config.machineMemBytes = 256_MiB;
    System system(config);
    const auto id = system.mmap(1_MiB, "heap", true);
    const VirtAddr va = system.appSpace().vmas().byId(id)->start;
    system.touch(va);
    Machine machine(system, MachineConfig{});
    const auto first = machine.translate(va, 0);
    EXPECT_EQ(first.tlbLevel, TlbHitLevel::Miss);
    EXPECT_TRUE(first.walked);
    const auto second = machine.translate(va, 1000);
    EXPECT_EQ(second.tlbLevel, TlbHitLevel::L1);
    EXPECT_EQ(second.translation.pfn, first.translation.pfn);
}

TEST(Machine, FaultServicedTransparently)
{
    SystemConfig config;
    config.machineMemBytes = 256_MiB;
    System system(config);
    const auto id = system.mmap(1_MiB, "heap", true);
    const VirtAddr va = system.appSpace().vmas().byId(id)->start;
    // No touch: first access faults, OS services it, walk replays.
    Machine machine(system, MachineConfig{});
    const auto result = machine.translate(va, 0);
    EXPECT_TRUE(result.faulted);
    EXPECT_FALSE(result.translation.pfn == invalidPfn);
    EXPECT_EQ(machine.faults(), 1u);
    const auto t = system.appSpace().translate(va);
    EXPECT_EQ(result.translation.pfn, t->pfn);
}

TEST(Simulator, StatsAreConsistent)
{
    Environment env(tinySpec());
    const RunStats stats = env.run(makeMachineConfig(), tinyRun());
    EXPECT_EQ(stats.accesses, 20'000u);
    EXPECT_EQ(stats.tlbL1Hits + stats.tlbL2Hits + stats.tlbMisses,
              stats.accesses);
    EXPECT_EQ(stats.walkLatency.count(), stats.tlbMisses);
    EXPECT_EQ(stats.totalCycles,
              stats.computeCycles + stats.dataCycles + stats.walkCycles);
    EXPECT_GT(stats.tlbMisses, 0u);
    EXPECT_GT(stats.avgWalkLatency(), 0.0);
    EXPECT_LE(stats.walkCycleFraction(), 1.0);
}

TEST(Simulator, DeterministicAcrossRuns)
{
    Environment env1(tinySpec());
    Environment env2(tinySpec());
    const RunStats a = env1.run(makeMachineConfig(), tinyRun());
    const RunStats b = env2.run(makeMachineConfig(), tinyRun());
    golden::expectSameStats(a, b, "second environment");
}

/**
 * diff() reports each changed value of every part type as exactly one
 * line that starts with the field's name; identical runs report none.
 */
TEST(RunStatsDiff, OneLinePerChangedField)
{
    const RunStats base =
        golden::runScenario(golden::goldenScenarios()[1]);
    ASSERT_GT(base.counters.size(), 5u);
    EXPECT_TRUE(base.diff(base).empty());

    constexpr std::size_t lastBucket = obs::Histogram::numBuckets - 1;
    const std::string counter = base.counters[5].first;
    const std::vector<std::pair<std::string,
                                std::function<void(RunStats &)>>>
        changes = {
            {"tlbMisses: ", [](RunStats &s) { ++s.tlbMisses; }},
            {"walkLatency.sqHi: ",
             [](RunStats &s) {
                 const SampleStat w = s.walkLatency;
                 s.walkLatency.restore(w.count(), w.sum(), w.min(),
                                       w.max(), w.sumSquaresHi() + 1,
                                       w.sumSquaresLo());
             }},
            {"levelDist[3].L2: ",
             [](RunStats &s) {
                 LevelDistribution &d = s.levelDist[3];
                 d.restoreCount(MemLevel::L2, d.count(MemLevel::L2) + 1);
             }},
            {strprintf("walkHist.b[%zu]: ", lastBucket),
             [](RunStats &s) { s.walkHist.setBucketCount(lastBucket, 1); }},
            {strprintf("levelHist[2].b[%zu]: ", lastBucket),
             [](RunStats &s) {
                 s.levelHist[2].setBucketCount(lastBucket, 1);
             }},
            {"hostAsap.rangeHits: ",
             [](RunStats &s) { ++s.hostAsap.rangeHits; }},
            {"dyn.regionFramesReleased: ",
             [](RunStats &s) { ++s.dyn.regionFramesReleased; }},
            {"counters[5]: " + counter,
             [](RunStats &s) { ++s.counters[5].second; }},
            {"counters[5]: " + counter,
             [](RunStats &s) { s.counters[5].first += "X"; }},
        };
    for (const auto &[field, change] : changes) {
        SCOPED_TRACE(field);
        RunStats changed = base;
        change(changed);
        for (const auto &lines : {base.diff(changed), changed.diff(base)}) {
            ASSERT_EQ(lines.size(), 1u);
            EXPECT_EQ(lines[0].rfind(field, 0), 0u) << lines[0];
        }
    }
}

TEST(Simulator, SeedChangesStream)
{
    Environment env(tinySpec());
    RunConfig run = tinyRun();
    const RunStats a = env.run(makeMachineConfig(), run);
    run.seed = 12345;
    const RunStats b = env.run(makeMachineConfig(), run);
    EXPECT_NE(a.walkLatency.sum(), b.walkLatency.sum());
}

TEST(Simulator, PerfectTlbHasNoWalks)
{
    Environment env(tinySpec());
    RunConfig run = tinyRun();
    run.perfectTlb = true;
    const RunStats stats = env.run(makeMachineConfig(), run);
    EXPECT_EQ(stats.tlbMisses, 0u);
    EXPECT_EQ(stats.walkCycles, 0u);
    EXPECT_GT(stats.totalCycles, 0u);
}

TEST(Simulator, ColocationIncreasesWalkLatency)
{
    Environment env(tinySpec());
    const RunStats iso = env.run(makeMachineConfig(), tinyRun(false));
    const RunStats coloc = env.run(makeMachineConfig(), tinyRun(true));
    EXPECT_GT(coloc.avgWalkLatency(), iso.avgWalkLatency());
}

TEST(Simulator, VirtualizationIncreasesWalkLatency)
{
    Environment native(tinySpec());
    EnvironmentOptions virtOptions;
    virtOptions.virtualized = true;
    Environment virt(tinySpec(), virtOptions);
    const RunStats n = native.run(makeMachineConfig(), tinyRun());
    const RunStats v = virt.run(makeMachineConfig(), tinyRun());
    EXPECT_GT(v.avgWalkLatency(), 1.5 * n.avgWalkLatency());
}

TEST(Simulator, AsapReducesNativeWalkLatency)
{
    EnvironmentOptions asapOptions;
    asapOptions.asapPlacement = true;
    Environment baseline(tinySpec());
    Environment asap(tinySpec(), asapOptions);
    const RunStats base = baseline.run(makeMachineConfig(), tinyRun());
    const RunStats p1 =
        asap.run(makeMachineConfig(AsapConfig::p1()), tinyRun());
    const RunStats p1p2 =
        asap.run(makeMachineConfig(AsapConfig::p1p2()), tinyRun());
    EXPECT_LT(p1.avgWalkLatency(), base.avgWalkLatency());
    EXPECT_LE(p1p2.avgWalkLatency(), p1.avgWalkLatency() * 1.02);
}

TEST(Simulator, AsapGainsLargerUnderVirtualization)
{
    EnvironmentOptions baseVirt;
    baseVirt.virtualized = true;
    EnvironmentOptions asapVirt = baseVirt;
    asapVirt.asapPlacement = true;
    Environment baseline(tinySpec(), baseVirt);
    Environment asap(tinySpec(), asapVirt);
    const RunStats base = baseline.run(makeMachineConfig(), tinyRun());
    const RunStats guestOnly = asap.run(
        makeMachineConfig(AsapConfig::p1p2()), tinyRun());
    const RunStats both = asap.run(
        makeMachineConfig(AsapConfig::p1p2(), AsapConfig::p1p2()),
        tinyRun());
    EXPECT_LT(guestOnly.avgWalkLatency(), base.avgWalkLatency());
    EXPECT_LT(both.avgWalkLatency(), guestOnly.avgWalkLatency());
}

TEST(Simulator, ClusteredTlbReducesMisses)
{
    Environment env(tinySpec());
    MachineConfig clustered;
    clustered.tlb.clusteredL2 = true;
    const RunStats plain = env.run(makeMachineConfig(), tinyRun());
    const RunStats coalesced = env.run(clustered, tinyRun());
    EXPECT_LT(coalesced.tlbMisses, plain.tlbMisses);
}

TEST(Simulator, PwcScalingHasMarginalEffect)
{
    // Section 5.1.1: doubling PWC capacity buys only a few percent.
    Environment env(tinySpec());
    MachineConfig big;
    big.pwcScale = 2;
    const RunStats normal = env.run(makeMachineConfig(), tinyRun());
    const RunStats scaled = env.run(big, tinyRun());
    EXPECT_LE(scaled.avgWalkLatency(), normal.avgWalkLatency());
    EXPECT_GT(scaled.avgWalkLatency(), 0.8 * normal.avgWalkLatency());
}

TEST(Workload, AddressesStayInsideVmas)
{
    Environment env(tinySpec(true));
    Workload &workload = env.workload();
    Rng rng(3);
    workload.reset(rng);
    for (int i = 0; i < 10'000; ++i) {
        const VirtAddr va = workload.next(rng);
        EXPECT_NE(env.system().appSpace().vmas().find(va), nullptr);
    }
}

TEST(Workload, PrefaultedSoNoMeasureFaults)
{
    Environment env(tinySpec());
    const RunStats stats = env.run(makeMachineConfig(), tinyRun());
    EXPECT_EQ(stats.faults, 0u);
}

TEST(Workload, BurstsRepeatPages)
{
    WorkloadSpec spec = tinySpec();
    spec.burstContinueProb = 0.9;
    Environment env(spec);
    Workload &workload = env.workload();
    Rng rng(5);
    workload.reset(rng);
    unsigned samePage = 0;
    VirtAddr prev = workload.next(rng);
    for (int i = 0; i < 2000; ++i) {
        const VirtAddr va = workload.next(rng);
        if (vpnOf(va) == vpnOf(prev))
            ++samePage;
        prev = va;
    }
    EXPECT_GT(samePage, 1400u);   // ~90% continuation
}

TEST(Suite, AllSpecsAreWellFormed)
{
    const auto suite = standardSuite();
    ASSERT_EQ(suite.size(), 7u);
    for (const WorkloadSpec &spec : suite) {
        EXPECT_FALSE(spec.name.empty());
        EXPECT_GT(spec.residentPages, 0u);
        EXPECT_GE(spec.dataVmas, 1u);
        EXPECT_LE(spec.seqFraction + spec.nearFraction +
                      spec.windowFraction,
                  1.0);
        EXPECT_GT(spec.machineMemBytes,
                  spec.residentPages * pageSize);
        // Guest memory must hold the resident set for virt scenarios.
        EXPECT_GT(spec.guestMemBytes, spec.residentPages * pageSize);
    }
}

TEST(Suite, SpecByName)
{
    EXPECT_TRUE(specByName("mcf").has_value());
    EXPECT_TRUE(specByName("mc400").has_value());
    EXPECT_FALSE(specByName("nope").has_value());
}

TEST(Suite, ScaledDownShrinks)
{
    const WorkloadSpec full = mcfSpec();
    const WorkloadSpec quarter = scaledDown(full, 4);
    EXPECT_EQ(quarter.residentPages, full.residentPages / 4);
    EXPECT_LE(quarter.windowPages, full.windowPages);
}

TEST(Suite, Table2VmaCounts)
{
    // Table 2 of the paper: total VMA counts per application.
    struct Expected { const char *name; unsigned total; };
    const Expected expected[] = {
        {"mcf", 16}, {"canneal", 18}, {"bfs", 14}, {"pagerank", 18},
        {"mc80", 26}, {"mc400", 33}, {"redis", 7},
    };
    for (const auto &[name, total] : expected) {
        const auto spec = specByName(name);
        ASSERT_TRUE(spec.has_value()) << name;
        EXPECT_EQ(spec->smallVmas + spec->dataVmas, total) << name;
    }
}

/**
 * Refactor-safety goldens: the complete observable RunStats of six
 * structurally distinct configurations, pinned bit-for-bit.
 *
 * The literals were captured from the pre-refactor simulator (PR 1
 * tree) with examples/golden_dump.cpp; any hot-path rework — slab page
 * tables, unified set-associative arrays, flat MSHRs, loop
 * restructuring — must reproduce every value exactly. Regenerate with
 * golden_dump only for *intentional* model changes, and say so in the
 * commit message.
 */
TEST(Golden, RunStatsBitIdenticalAcrossConfigs)
{
    const std::map<std::string, golden::Expect> expected = {
        {"native",
         {8431, 2974, 4595, 0,
          4595, 268489, 6, 233,
          1218357, 268489, 901868, 48000,
          {4595, 4595, 4595, 4595, 0},
          {0, 4155, 4595, 4595, 0},
          {1085, 0, 0, 0, 0},
          0, 0, 0, 0,
          0}},
        {"native_asap",
         {8431, 2974, 4595, 0,
          4595, 259311, 6, 191,
          1208559, 259311, 901248, 48000,
          {4595, 4595, 4595, 4595, 0},
          {0, 4155, 4595, 4595, 0},
          {0, 0, 0, 0, 0},
          6118, 6118, 12236, 4919,
          0}},
        {"virt_2d",
         {8431, 2974, 4595, 0,
          4595, 596108, 18, 450,
          1558692, 596108, 914584, 48000,
          {0, 0, 0, 0, 0},
          {0, 0, 0, 0, 0},
          {0, 0, 0, 0, 0},
          0, 0, 0, 0,
          0}},
        {"virt_hugepage_asap",
         {8431, 2974, 4595, 0,
          4595, 293313, 18, 197,
          1242665, 293313, 901352, 48000,
          {0, 0, 0, 0, 0},
          {0, 0, 0, 0, 0},
          {0, 0, 0, 0, 0},
          6118, 6118, 12236, 4969,
          5}},
        {"clustered_l2",
         {8431, 5784, 1785, 0,
          1785, 230705, 6, 205,
          1176233, 230705, 897528, 48000,
          {1785, 1785, 1785, 1785, 0},
          {0, 1486, 1785, 1785, 0},
          {1085, 0, 0, 0, 0},
          0, 0, 0, 0,
          0}},
        {"coloc_asap",
         {8431, 2974, 4595, 0,
          4595, 308248, 6, 191,
          1326390, 308248, 970142, 48000,
          {4595, 4595, 4595, 4595, 0},
          {0, 4155, 4595, 4595, 0},
          {0, 0, 0, 0, 0},
          6118, 6118, 12236, 6190,
          0}},
    };

    for (const golden::Scenario &scenario : golden::goldenScenarios()) {
        SCOPED_TRACE(scenario.name);
        const auto it = expected.find(scenario.name);
        ASSERT_NE(it, expected.end());
        golden::expectSameDigest(
            golden::flatten(golden::runScenario(scenario)), it->second);
    }
}

/**
 * Two run shapes no literal above can pin, captured the same way:
 * the perfect-TLB run (Table 6's ideal TLB: only data and compute
 * cycles move) and a firing churn run — the "tenants" profile over the
 * pinned workload with ASAP placement and P1+P2, whose OS events,
 * shootdowns and region teardown land in RunStats::dyn as well.
 */
TEST(Golden, PerfectTlbAndChurnBitIdentical)
{
    const std::map<std::string, golden::Expect> expected = {
        {"perfect_tlb_native_asap",
         {0, 0, 0, 0,
          0, 0, 0, 0,
          933928, 0, 885928, 48000,
          {0, 0, 0, 0, 0},
          {0, 0, 0, 0, 0},
          {0, 0, 0, 0, 0},
          0, 0, 0, 0,
          0}},
        {"churn_tenants_asap",
         {8431, 2980, 4589, 88,
          4589, 255015, 6, 191,
          1214616, 255015, 911601, 48000,
          {4589, 4589, 4589, 4589, 0},
          {0, 4155, 4584, 4584, 0},
          {0, 0, 0, 0, 0},
          6201, 6201, 12402, 4914,
          0}},
    };
    const std::map<std::string, std::array<std::uint64_t, 16>>
        expectedDyn = {
            {"perfect_tlb_native_asap",
             {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
            {"churn_tenants_asap",
             {29, 6, 3, 3840, 6, 1, 1, 3072, 6, 0, 137, 17, 0, 0, 6, 9}},
        };

    for (const golden::Scenario &scenario : golden::extraScenarios()) {
        SCOPED_TRACE(scenario.name);
        ASSERT_EQ(expected.count(scenario.name), 1u);
        const RunStats stats = golden::runScenario(scenario);
        golden::expectSameDigest(golden::flatten(stats),
                                 expected.at(scenario.name));
        EXPECT_EQ(golden::flattenDyn(stats),
                  expectedDyn.at(scenario.name));
    }
}

/**
 * Golden trace-replay configurations: the pinned workload is recorded
 * to a trace once, then two structurally distinct scenarios — a native
 * ASAP machine and a virtualized 2D walk — run from the trace and must
 * reproduce the live generator's RunStats bit-for-bit (the live side
 * being itself pinned by RunStatsBitIdenticalAcrossConfigs above). One
 * recording serves both environments: the trace captures the workload,
 * not the scenario.
 */
TEST(Golden, TraceReplayBitIdentical)
{
    const std::string path = "golden_trace.asaptrace";
    const RunConfig probe = golden::goldenRunConfig(false);
    recordTrace(golden::goldenSpec(), path, probe.seed,
                probe.warmupAccesses + probe.measureAccesses);

    for (const golden::Scenario &scenario : golden::goldenScenarios()) {
        if (scenario.name != "native_asap" && scenario.name != "virt_2d")
            continue;
        SCOPED_TRACE(scenario.name);
        const RunStats live = golden::runScenario(scenario);

        System system(makeSystemConfig(golden::goldenSpec(),
                                       scenario.env));
        TraceReplayWorkload replay(path);
        replay.setup(system);
        Machine machine(system, scenario.machine);
        Simulator simulator(system, machine, replay);
        golden::expectSameStats(
            simulator.run(golden::goldenRunConfig(scenario.colocation)),
            live, "replay vs live");
    }
    std::remove(path.c_str());
}

/** Parameterized: every ASAP config yields identical translations to
 *  the baseline (end-to-end safety property). */
class AsapSafety : public ::testing::TestWithParam<int>
{};

TEST_P(AsapSafety, TranslationsIdenticalWithAndWithoutAsap)
{
    EnvironmentOptions asapOptions;
    asapOptions.asapPlacement = true;
    asapOptions.holeFraction = GetParam() == 2 ? 0.3 : 0.0;
    Environment env(tinySpec(), asapOptions);
    Machine plain(env.system(), makeMachineConfig());
    Machine accelerated(env.system(),
                        makeMachineConfig(AsapConfig::p1p2()));
    Rng rng(23);
    Workload &workload = env.workload();
    workload.reset(rng);
    for (int i = 0; i < 3000; ++i) {
        const VirtAddr va = workload.next(rng);
        const auto a = plain.translate(va, static_cast<Cycles>(i) * 10);
        const auto b =
            accelerated.translate(va, static_cast<Cycles>(i) * 10);
        ASSERT_EQ(a.translation.pfn, b.translation.pfn) << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Configs, AsapSafety, ::testing::Values(1, 2));
