/**
 * @file
 * OS-dynamics subsystem tests (src/dyn): event-stream serialization,
 * targeted TLB/PWC/clustered-TLB invalidation (unit + differential
 * against full flush over randomized configs), System-level munmap /
 * madvise teardown incl. ASAP region release, stale-translation
 * correctness after madvise + shootdown, zero-event equivalence with
 * the pinned Golden scenarios, end-to-end churn runs, and bit-identical
 * record -> replay of dynamic runs through the ASAPTRC2 event-op chunk.
 */

#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "dyn/dynamics.hh"
#include "dyn/os_events.hh"
#include "exp/sweep.hh"
#include "expect_status.hh"
#include "golden_scenarios.hh"
#include "sim/environment.hh"
#include "trace/convert.hh"
#include "workloads/dynamic.hh"
#include "workloads/trace.hh"

using namespace asap;

namespace
{

WorkloadSpec
tinySpec()
{
    WorkloadSpec spec;
    spec.name = "dyntiny";
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
    spec.churnOps = 20'000;
    return spec;
}

RunConfig
tinyRun()
{
    RunConfig run;
    run.warmupAccesses = 20'000;
    run.measureAccesses = 80'000;
    run.seed = 7;
    return run;
}

} // namespace

// ---------------------------------------------------------------------------
// Event-stream serialization
// ---------------------------------------------------------------------------

TEST(OsEvents, EncodeDecodeRoundTrip)
{
    OsEventStream stream;
    OsEvent mmap;
    mmap.atAccess = 1'000;
    mmap.kind = OsEventKind::Mmap;
    mmap.handle = 0;
    mmap.bytes = 64 * pageSize;
    mmap.prefetchable = true;
    stream.add(mmap);

    OsEvent fault;
    fault.atAccess = 1'000;
    fault.kind = OsEventKind::MinorFault;
    fault.handle = 0;
    fault.addr = 8 * pageSize;
    fault.pages = 16;
    stream.add(fault);

    OsEvent madvise;
    madvise.atAccess = 50'000;
    madvise.kind = OsEventKind::MadviseFree;
    madvise.addr = 0x10000000000ull + 123 * pageSize;
    madvise.pages = 200;
    stream.add(madvise);

    OsEvent release;
    release.atAccess = 70'000;
    release.kind = OsEventKind::ReleaseChurn;
    release.pages = 250;
    stream.add(release);

    OsEvent munmap;
    munmap.atAccess = 90'000;
    munmap.kind = OsEventKind::Munmap;
    munmap.handle = 0;
    stream.add(munmap);

    const std::string bytes = stream.encode();
    const OsEventStream decoded = OsEventStream::decode(
        reinterpret_cast<const std::uint8_t *>(bytes.data()),
        reinterpret_cast<const std::uint8_t *>(bytes.data()) +
            bytes.size(),
        "<test>");
    ASSERT_EQ(decoded.size(), stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const OsEvent &a = stream.events()[i];
        const OsEvent &b = decoded.events()[i];
        EXPECT_EQ(a.atAccess, b.atAccess) << i;
        EXPECT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind));
        EXPECT_EQ(a.handle, b.handle) << i;
        EXPECT_EQ(a.addr, b.addr) << i;
        EXPECT_EQ(a.pages, b.pages) << i;
        EXPECT_EQ(a.bytes, b.bytes) << i;
        EXPECT_EQ(a.prefetchable, b.prefetchable) << i;
    }
}

TEST(OsEvents, DecodeRejectsUndefinedHandle)
{
    OsEventStream stream;
    OsEvent munmap;
    munmap.atAccess = 10;
    munmap.kind = OsEventKind::Munmap;
    munmap.handle = 5;          // never defined by an Mmap
    stream.add(munmap);
    const std::string bytes = stream.encode();
    testutil::expectStatusError(
        [&] {
            OsEventStream::decode(
                reinterpret_cast<const std::uint8_t *>(bytes.data()),
                reinterpret_cast<const std::uint8_t *>(bytes.data()) +
                    bytes.size(),
                "<test>");
        },
        StatusCode::DataLoss, "undefined handle");
}

// ---------------------------------------------------------------------------
// Targeted invalidation units
// ---------------------------------------------------------------------------

TEST(Invalidate, TlbRangeDropsOnlyOverlappingPages)
{
    Tlb tlb(TlbConfig{"T", 64, 8});
    Translation t;
    t.leafLevel = 1;
    for (unsigned page = 0; page < 32; ++page) {
        t.pfn = 1'000 + page;
        tlb.fill(page * pageSize, t);
    }
    // Also a 2MB entry far away.
    t.leafLevel = 2;
    t.pfn = 9'000;
    tlb.fill(64 * levelSpan(2), t);

    const std::uint64_t dropped =
        tlb.invalidateRange(8 * pageSize, 16 * pageSize);
    EXPECT_EQ(dropped, 8u);
    for (unsigned page = 0; page < 32; ++page) {
        const auto hit = tlb.lookup(page * pageSize);
        if (page >= 8 && page < 16)
            EXPECT_FALSE(hit.has_value()) << page;
        else
            ASSERT_TRUE(hit.has_value()) << page;
    }
    EXPECT_TRUE(tlb.lookup(64 * levelSpan(2)).has_value());

    // A range overlapping the 2MB page drops it even when the range is
    // a single 4KB page inside it.
    EXPECT_EQ(tlb.invalidateRange(64 * levelSpan(2) + 5 * pageSize,
                                  64 * levelSpan(2) + 6 * pageSize),
              1u);
    EXPECT_FALSE(tlb.lookup(64 * levelSpan(2)).has_value());
}

TEST(Invalidate, ClusteredTlbDropsOverlappingClusters)
{
    SystemConfig config;
    config.machineMemBytes = 256_MiB;
    System system(config);
    const auto id = system.mmap(1_MiB, "heap", true);
    const VirtAddr base = system.appSpace().vmas().byId(id)->start;
    for (unsigned page = 0; page < 64; ++page)
        system.touch(base + page * pageSize);

    ClusteredTlb tlb(TlbConfig{"C", 64, 8});
    for (unsigned page = 0; page < 64; ++page) {
        const VirtAddr va = base + page * pageSize;
        tlb.fill(va, *system.appSpace().translate(va),
                 system.appPt());
    }
    // Invalidate pages [12, 20): clusters 1 and 2 overlap and die
    // whole; every other cluster survives.
    tlb.invalidateRange(base + 12 * pageSize, base + 20 * pageSize);
    for (unsigned page = 0; page < 64; ++page) {
        const bool inDroppedCluster = page >= 8 && page < 24;
        EXPECT_EQ(tlb.lookup(base + page * pageSize).has_value(),
                  !inDroppedCluster)
            << page;
    }
}

TEST(Invalidate, PwcDropsCoveringEntries)
{
    PageWalkCaches pwc;
    // Level-2 entries cover 2MB each; level-3 covers 1GB.
    pwc.insert(2, 0 * levelSpan(2), 100, 1);
    pwc.insert(2, 1 * levelSpan(2), 101, 2);
    pwc.insert(2, 5 * levelSpan(2), 102, 3);
    pwc.insert(3, 0, 200, 4);

    // One page inside the second 2MB span kills that entry and the
    // covering 1GB entry, nothing else.
    const std::uint64_t dropped = pwc.invalidateRange(
        levelSpan(2) + 3 * pageSize, levelSpan(2) + 4 * pageSize);
    EXPECT_EQ(dropped, 2u);
    EXPECT_EQ(pwc.lookupDeepest(0).level, 2u);
    EXPECT_EQ(pwc.lookupDeepest(levelSpan(2)).level, 0u);
    EXPECT_EQ(pwc.lookupDeepest(5 * levelSpan(2)).level, 2u);
}

// ---------------------------------------------------------------------------
// OS teardown mechanics
// ---------------------------------------------------------------------------

TEST(Teardown, MunmapReturnsFramesAndPtNodes)
{
    SystemConfig config;
    config.machineMemBytes = 256_MiB;
    System system(config);
    const std::uint64_t freeBefore =
        system.machineFrames().freeFrames();
    const std::uint64_t nodesBefore = system.appPt().nodeCount();

    const auto id = system.mmap(8_MiB, "tenant", true);
    const VirtAddr base = system.appSpace().vmas().byId(id)->start;
    for (unsigned page = 0; page < 2'048; ++page)
        system.touch(base + page * pageSize);
    ASSERT_LT(system.machineFrames().freeFrames(), freeBefore);
    ASSERT_GT(system.appPt().nodeCount(), nodesBefore);

    const auto counts = system.munmap(id);
    EXPECT_EQ(counts.start, base);
    EXPECT_EQ(counts.dataPagesFreed, 2'048u);
    EXPECT_GT(counts.ptNodesFreed, 0u);
    // Everything returns: data frames and PT node frames.
    EXPECT_EQ(system.machineFrames().freeFrames(), freeBefore);
    EXPECT_EQ(system.appPt().nodeCount(), nodesBefore);
    EXPECT_EQ(system.appPt().deadNodeCount(), counts.ptNodesFreed);
    EXPECT_EQ(system.appSpace().vmas().find(base), nullptr);
    EXPECT_TRUE(system.machineFrames().checkConsistency());
}

TEST(Teardown, MunmapReleasesAsapRegions)
{
    SystemConfig config;
    config.machineMemBytes = 256_MiB;
    config.asapPlacement = true;
    System system(config);
    const auto id = system.mmap(8_MiB, "tenant", true);
    const VirtAddr base = system.appSpace().vmas().byId(id)->start;
    for (unsigned page = 0; page < 2'048; ++page)
        system.touch(base + page * pageSize);

    const AsapPtAllocator *allocator = system.appAsapAllocator();
    ASSERT_NE(allocator, nullptr);
    const std::uint64_t reservedBefore = allocator->reservedFrames();
    ASSERT_EQ(allocator->regions().size(), 2u);   // PL1 + PL2

    system.munmap(id);
    EXPECT_EQ(allocator->regions().size(), 0u);
    EXPECT_EQ(allocator->regionsReleased(), 2u);
    EXPECT_GT(allocator->releasedFrames(), 0u);
    EXPECT_LT(allocator->reservedFrames(), reservedBefore);
    EXPECT_TRUE(system.machineFrames().checkConsistency());

    // The space is genuinely reusable: a new tenant of the same shape
    // reserves regions again.
    const auto id2 = system.mmap(8_MiB, "tenant2", true);
    EXPECT_EQ(allocator->regions().size(), 2u);
    system.munmap(id2);
}

TEST(Teardown, MadviseFreeRefaultsToFreshMapping)
{
    SystemConfig config;
    config.machineMemBytes = 256_MiB;
    System system(config);
    const auto id = system.mmap(4_MiB, "heap", true);
    const VirtAddr base = system.appSpace().vmas().byId(id)->start;
    for (unsigned page = 0; page < 1'024; ++page)
        system.touch(base + page * pageSize);

    Machine machine(system, MachineConfig{});
    const VirtAddr probe = base + 100 * pageSize;
    const auto before = machine.translate(probe, 0);
    ASSERT_FALSE(before.faulted);

    // OS frees the range; the machine's shootdown must remove the now
    // stale TLB/PWC state, and the next access faults to a (possibly
    // different) frame that matches the functional page table.
    const auto counts = system.madviseFree(base + 64 * pageSize, 128);
    EXPECT_EQ(counts.dataPagesFreed, 128u);
    machine.invalidateRange(counts.start, counts.end);

    const auto after = machine.translate(probe, 1'000);
    EXPECT_TRUE(after.faulted);
    const auto functional = system.appSpace().translate(probe);
    ASSERT_TRUE(functional.has_value());
    EXPECT_EQ(after.translation.pfn, functional->pfn);

    // Pages outside the madvised window kept their mapping.
    const VirtAddr outside = base + 10 * pageSize;
    const auto t = machine.translate(outside, 2'000);
    EXPECT_FALSE(t.faulted);
}

// ---------------------------------------------------------------------------
// Differential: range invalidation vs full flush
// ---------------------------------------------------------------------------

/** Seeds pick (virtualized, clustered, asap) combinations. */
class InvalidateDifferential
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(InvalidateDifferential, FullRangeInvalidateEqualsFlush)
{
    const std::uint64_t seed = GetParam();
    WorkloadSpec spec = tinySpec();
    spec.residentPages = 8'000;
    spec.windowPages = 1'000;

    EnvironmentOptions env;
    env.virtualized = (seed & 1) != 0;
    env.asapPlacement = (seed & 2) != 0;
    System system(makeSystemConfig(spec, env));
    const auto workload = makeWorkload(spec);
    workload->setup(system);

    MachineConfig machineConfig =
        env.asapPlacement ? makeMachineConfig(AsapConfig::p1p2())
                          : MachineConfig{};
    machineConfig.tlb.clusteredL2 = (seed & 4) != 0 && !env.virtualized;
    Machine rangeInv(system, machineConfig);
    Machine flushed(system, machineConfig);

    Rng rng(seed ^ 0xd1f);
    workload->reset(rng);
    std::vector<VirtAddr> vas(6'000);
    for (VirtAddr &va : vas)
        va = workload->next(rng);

    // Phase 1: identical warm-up drives identical machine state.
    Cycles now = 0;
    for (const VirtAddr va : vas) {
        const auto a = rangeInv.translate(va, now);
        const auto b = flushed.translate(va, now);
        ASSERT_EQ(a.translation.pfn, b.translation.pfn);
        now += 10;
    }

    // Whole-address-space range invalidation must behave exactly like
    // the full flush of TLBs + app PWCs.
    rangeInv.invalidateRange(0, ~VirtAddr{0});
    flushed.flush();

    // Phase 2: every subsequent translation agrees in hit level, walk
    // latency and result — the machines are indistinguishable.
    for (const VirtAddr va : vas) {
        const auto a = rangeInv.translate(va, now);
        const auto b = flushed.translate(va, now);
        ASSERT_EQ(static_cast<int>(a.tlbLevel),
                  static_cast<int>(b.tlbLevel));
        ASSERT_EQ(a.walked, b.walked);
        ASSERT_EQ(a.walkLatency, b.walkLatency);
        ASSERT_EQ(a.translation.pfn, b.translation.pfn);
        now += 10;
    }
}

INSTANTIATE_TEST_SUITE_P(Configs, InvalidateDifferential,
                         ::testing::Values(0, 1, 2, 3, 4, 6, 7, 13));

/** Partial-range invalidation never breaks translations: after random
 *  shootdowns, every translate agrees with the functional lookup. */
TEST(InvalidateDifferentialPartial, RandomRangesStayCorrect)
{
    WorkloadSpec spec = tinySpec();
    spec.residentPages = 8'000;
    EnvironmentOptions env;
    env.asapPlacement = true;
    System system(makeSystemConfig(spec, env));
    const auto workload = makeWorkload(spec);
    workload->setup(system);
    Machine machine(system, makeMachineConfig(AsapConfig::p1p2()));

    Rng rng(99);
    workload->reset(rng);
    Cycles now = 0;
    for (int round = 0; round < 40; ++round) {
        for (int i = 0; i < 300; ++i) {
            const VirtAddr va = workload->next(rng);
            const auto result = machine.translate(va, now);
            const auto functional = system.appSpace().translate(va);
            ASSERT_TRUE(functional.has_value());
            ASSERT_EQ(result.translation.pfn, functional->pfn);
            now += 10;
        }
        // Shoot down a random 1-64 page range near the last access.
        const VirtAddr start =
            alignDown(workload->next(rng), pageSize);
        machine.invalidateRange(start,
                                start + (1 + rng.below(64)) * pageSize);
    }
}

// ---------------------------------------------------------------------------
// Zero-event equivalence with the pinned Golden scenarios
// ---------------------------------------------------------------------------

TEST(ZeroEvents, GoldenScenariosBitIdentical)
{
    // A dynamics-wrapped workload whose events all lie beyond the end
    // of the run: the event machinery is active but never fires, and
    // every pinned Golden scenario must come out bit-identical to the
    // plain run (the static path is untouched by construction; this
    // pins the batch-capping logic too).
    for (const golden::Scenario &scenario : golden::goldenScenarios()) {
        SCOPED_TRACE(scenario.name);
        const RunStats plain = golden::runScenario(scenario);

        const WorkloadSpec spec = withDynamics(
            golden::goldenSpec(), "server", 1.0,
            /*periodAccesses=*/10'000'000);
        System system(makeSystemConfig(spec, scenario.env));
        const auto workload = makeWorkload(spec);
        workload->setup(system);
        ASSERT_NE(workload->events(), nullptr);
        Machine machine(system, scenario.machine);
        Simulator simulator(system, machine, *workload);
        const RunStats stats =
            simulator.run(golden::goldenRunConfig(scenario.colocation));
        EXPECT_EQ(stats.dyn.events, 0u);
        golden::expectSameStats(plain, stats, "idle events");
    }
}

// ---------------------------------------------------------------------------
// End-to-end churn runs
// ---------------------------------------------------------------------------

TEST(ChurnRun, TenantsProfileExercisesLifecycle)
{
    const WorkloadSpec spec =
        withDynamics(tinySpec(), "tenants", 1.0, 5'000);
    EnvironmentOptions env;
    env.asapPlacement = true;
    System system(makeSystemConfig(spec, env));
    const auto workload = makeWorkload(spec);
    workload->setup(system);
    Machine machine(system, makeMachineConfig(AsapConfig::p1p2()));
    Simulator simulator(system, machine, *workload);
    const RunStats stats = simulator.run(tinyRun());

    // Stats invariants hold under churn.
    EXPECT_EQ(stats.accesses, 80'000u);
    EXPECT_EQ(stats.tlbL1Hits + stats.tlbL2Hits + stats.tlbMisses,
              stats.accesses);
    EXPECT_EQ(stats.totalCycles, stats.computeCycles + stats.dataCycles +
                                     stats.walkCycles);

    // The full lifecycle fired: arrivals, departures, madvise +
    // refault (measured-phase faults), shootdowns, region teardown.
    EXPECT_GT(stats.dyn.events, 0u);
    EXPECT_GT(stats.dyn.mmaps, 0u);
    EXPECT_GT(stats.dyn.munmaps, 0u);
    EXPECT_GT(stats.dyn.madviseFrees, 0u);
    EXPECT_GT(stats.dyn.minorFaults, 0u);
    EXPECT_GT(stats.dyn.dataPagesFreed, 0u);
    EXPECT_GT(stats.dyn.ptNodesFreed, 0u);
    EXPECT_GT(stats.dyn.tlbInvalidated, 0u);
    EXPECT_GT(stats.faults, 0u);
    EXPECT_GT(stats.dyn.regionsReleased, 0u);

    // Determinism: the same churn run twice from fresh state agrees.
    System system2(makeSystemConfig(spec, env));
    const auto workload2 = makeWorkload(spec);
    workload2->setup(system2);
    Machine machine2(system2, makeMachineConfig(AsapConfig::p1p2()));
    Simulator simulator2(system2, machine2, *workload2);
    const RunStats again = simulator2.run(tinyRun());
    golden::expectSameStats(stats, again, "second run");
}

TEST(ChurnRun, VirtualizedTenantsRun)
{
    // Mid-run tenant VMAs under virtualization + ASAP: guest regions
    // get host backing on arrival, recycled guest frames fall back to
    // demand backing, and the run completes with faults serviced.
    const WorkloadSpec spec =
        withDynamics(tinySpec(), "tenants", 1.0, 5'000);
    EnvironmentOptions env;
    env.virtualized = true;
    env.asapPlacement = true;
    System system(makeSystemConfig(spec, env));
    const auto workload = makeWorkload(spec);
    workload->setup(system);
    Machine machine(system,
                    makeMachineConfig(AsapConfig::p1p2(),
                                      AsapConfig::p1p2()));
    Simulator simulator(system, machine, *workload);
    const RunStats stats = simulator.run(tinyRun());
    EXPECT_GT(stats.dyn.munmaps, 0u);
    EXPECT_GT(stats.dyn.regionsReleased, 0u);
    EXPECT_EQ(stats.tlbL1Hits + stats.tlbL2Hits + stats.tlbMisses,
              stats.accesses);
}

TEST(ChurnRun, SweepPrivatizesDynamicEnvironments)
{
    // Two cells with identical spec + env options but different labels:
    // were they to share one Environment (the static grouping rule),
    // the second would run against the System the first churned —
    // different faults, different placement. The runner must give each
    // mutating cell a private Environment, making them identical.
    const WorkloadSpec spec =
        withDynamics(tinySpec(), "tenants", 1.0, 5'000);
    exp::SweepSpec sweep("dyn_privatize");
    RunConfig run = tinyRun();
    EnvironmentOptions env;
    sweep.add(spec, env, MachineConfig{}, run, "r", "first");
    sweep.add(spec, env, MachineConfig{}, run, "r", "second");
    const exp::ResultSet results = exp::SweepRunner(2).run(sweep);
    const RunStats &a = results.stats("r", "first");
    const RunStats &b = results.stats("r", "second");
    golden::expectSameStats(a, b, "first vs second");
}

// ---------------------------------------------------------------------------
// Record -> replay of dynamic runs
// ---------------------------------------------------------------------------

TEST(DynTrace, RecordReplayBitIdentical)
{
    const WorkloadSpec spec =
        withDynamics(tinySpec(), "tenants", 1.0, 5'000);
    const RunConfig run = tinyRun();
    EnvironmentOptions env;
    env.asapPlacement = true;

    RunStats live;
    {
        System system(makeSystemConfig(spec, env));
        const auto workload = makeWorkload(spec);
        workload->setup(system);
        Machine machine(system, makeMachineConfig(AsapConfig::p1p2()));
        Simulator simulator(system, machine, *workload);
        live = simulator.run(run);
    }

    const std::string path = "dyn_roundtrip.trc2";
    recordTrace(spec, path, run.seed,
                run.warmupAccesses + run.measureAccesses);

    {
        TraceFile trace(path);
        EXPECT_TRUE(trace.hasEventOps());
    }

    RunStats replayed;
    {
        System system(makeSystemConfig(spec, env));
        TraceReplayWorkload replay(path);
        ASSERT_NE(replay.events(), nullptr);
        replay.setup(system);
        Machine machine(system, makeMachineConfig(AsapConfig::p1p2()));
        Simulator simulator(system, machine, replay);
        replayed = simulator.run(run);
    }
    golden::expectSameStats(live, replayed, "replay vs live");

    // Re-containering (rechunk + compress) preserves the event stream
    // and hence the replayed RunStats, bit for bit.
    const std::string rechunked = "dyn_roundtrip_b.trc2";
    Trc2Options v2;
    v2.chunkAccesses = 4'096;
    convertToV2(path, rechunked, v2);
    RunStats reconverted;
    {
        System system(makeSystemConfig(spec, env));
        TraceReplayWorkload replay(rechunked);
        ASSERT_NE(replay.events(), nullptr);
        replay.setup(system);
        Machine machine(system, makeMachineConfig(AsapConfig::p1p2()));
        Simulator simulator(system, machine, replay);
        reconverted = simulator.run(run);
    }
    golden::expectSameStats(live, reconverted, "rechunked vs live");

    std::remove(path.c_str());
    std::remove(rechunked.c_str());
}

TEST(DynTrace, StaticV2TraceHasNoEventOps)
{
    const std::string path = "dyn_static.trc2";
    recordTrace(tinySpec(), path, 7, 50'000);
    TraceFile trace(path);
    EXPECT_FALSE(trace.hasEventOps());
    TraceReplayWorkload replay(path);
    EXPECT_EQ(replay.events(), nullptr);
    std::remove(path.c_str());
}

TEST(DynTrace, SweepPrivatizesARerecordedEventTrace)
{
    // Whether a trace cell may share its Environment is decided from
    // the file at run() time. Sweep a static trace at one path, then
    // re-record a dynamic one there: were the first sweep's verdict
    // kept, the second sweep's two identical cells would share one
    // Environment and the second would run on a churned System.
    const std::string path = "dyn_rerecorded.trc2";
    const RunConfig run = tinyRun();
    const std::uint64_t accesses = run.warmupAccesses + run.measureAccesses;
    recordTrace(tinySpec(), path, run.seed, accesses);
    exp::SweepSpec staticSweep("dyn_rerecord_static");
    staticSweep.add(traceSpec(path), {}, MachineConfig{}, run, "r", "c");
    ASSERT_TRUE(exp::SweepRunner(1).run(staticSweep).cell("r", "c")
                    .status.ok());

    recordTrace(withDynamics(tinySpec(), "tenants", 1.0, 5'000), path,
                run.seed, accesses);
    exp::SweepSpec sweep("dyn_rerecord");
    sweep.add(traceSpec(path), {}, MachineConfig{}, run, "r", "first");
    sweep.add(traceSpec(path), {}, MachineConfig{}, run, "r", "second");
    const exp::ResultSet results = exp::SweepRunner(1).run(sweep);
    const RunStats &a = results.stats("r", "first");
    EXPECT_GT(a.dyn.events, 0u);
    golden::expectSameStats(a, results.stats("r", "second"),
                            "first vs second");
    std::remove(path.c_str());
}
