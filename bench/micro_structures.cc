/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot structures —
 * not a paper experiment, but keeps the simulator itself honest (the
 * full benches run hundreds of millions of these operations).
 */

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "common/set_assoc.hh"
#include "mem/hierarchy.hh"
#include "os/buddy_allocator.hh"
#include "os/pt_allocators.hh"
#include "sim/environment.hh"
#include "sim/machine.hh"
#include "sim/system.hh"
#include "tlb/tlb.hh"
#include "walk/pwc.hh"
#include "walk/walker.hh"
#include "workloads/suite.hh"

using namespace asap;

static void
BM_CacheAccess(benchmark::State &state)
{
    MemoryHierarchy mem;
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(mem.accessPlain(rng.below(1_GiB)));
}
BENCHMARK(BM_CacheAccess);

static void
BM_TlbLookup(benchmark::State &state)
{
    TlbHierarchy tlb(TlbHierarchy::Config{});
    Translation t;
    t.pfn = 1;
    t.leafLevel = 1;
    for (Vpn v = 0; v < 1024; ++v)
        tlb.fill(v << pageShift, t);
    Rng rng(2);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            tlb.lookup(rng.below(2048) << pageShift));
}
BENCHMARK(BM_TlbLookup);

static void
BM_PwcLookup(benchmark::State &state)
{
    PageWalkCaches pwc;
    for (unsigned i = 0; i < 32; ++i)
        pwc.insert(2, static_cast<VirtAddr>(i) << 21, i);
    Rng rng(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            pwc.lookupDeepest(rng.below(64) << 21));
}
BENCHMARK(BM_PwcLookup);

static void
BM_BuddyAllocFree(benchmark::State &state)
{
    BuddyAllocator buddy(1 << 20);
    for (auto _ : state) {
        const Pfn f = buddy.allocFrame();
        buddy.freeFrame(f);
        benchmark::DoNotOptimize(f);
    }
}
BENCHMARK(BM_BuddyAllocFree);

/** Buddy churn as a long-uptime machine's System construction runs it:
 *  random orders 0..4 over 8 GiB, half the blocks held. */
static void
BM_BuddyChurn(benchmark::State &state)
{
    constexpr std::uint64_t ops = 100'000;
    for (auto _ : state) {
        BuddyAllocator buddy(8_GiB >> pageShift);
        Rng rng(7);
        buddy.churn(rng, ops, 4);
        benchmark::DoNotOptimize(buddy.freeFrames());
    }
    state.SetItemsProcessed(state.iterations() * ops);
}
BENCHMARK(BM_BuddyChurn)->Unit(benchmark::kMillisecond);

/**
 * One environment's System at quick size: construction (buddy churn
 * included) plus the workload's prefault — the layer simbench reports
 * only as os.system_build_s and os.prefault_ns_per_page.
 */
static void
BM_SystemBuild(benchmark::State &state, const char *name, bool virtualized)
{
    const WorkloadSpec spec =
        scaledDown(*specByName(name), quickScaleDivisor);
    EnvironmentOptions options;
    options.virtualized = virtualized;
    for (auto _ : state) {
        System system(makeSystemConfig(spec, options));
        makeWorkload(spec)->setup(system);
        benchmark::DoNotOptimize(system.appSpace().pageFaults());
    }
    state.SetItemsProcessed(state.iterations() * spec.residentPages);
}
BENCHMARK_CAPTURE(BM_SystemBuild, mcf, "mcf", false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SystemBuild, mc80_virt, "mc80", true)
    ->Unit(benchmark::kMillisecond);

static void
BM_ZipfNext(benchmark::State &state)
{
    BlockScrambledZipfian zipf(1'000'000, 0.99);
    Rng rng(4);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.next(rng));
}
BENCHMARK(BM_ZipfNext);

/** The unified set-associative scan at the paper-LLC geometry (the
 *  simulator's hottest loop), mixed hits and fills. */
static void
BM_SetAssocLlcScan(benchmark::State &state)
{
    SetAssoc<> array;
    array.init(16384, 20);
    Rng rng(5);
    for (std::uint64_t i = 0; i < 200'000; ++i) {
        const std::uint64_t tag = rng.below(1u << 20);
        const std::uint64_t set = array.setOf(tag);
        const auto slot = array.findOrVictim(set, SetAssoc<>::keyFor(tag));
        if (!slot.matched)
            *slot.way.key = SetAssoc<>::keyFor(tag);
        array.touch(set, slot.way);
    }
    for (auto _ : state) {
        const std::uint64_t tag = rng.below(1u << 20);
        const std::uint64_t set = array.setOf(tag);
        const auto slot = array.findOrVictim(set, SetAssoc<>::keyFor(tag));
        if (!slot.matched)
            *slot.way.key = SetAssoc<>::keyFor(tag);
        array.touch(set, slot.way);
        benchmark::DoNotOptimize(slot.matched);
    }
}
BENCHMARK(BM_SetAssocLlcScan);

/** Functional lookups through the slab page table (pointer-chased
 *  descent; no hashing per level). */
static void
BM_SlabPageTableLookup(benchmark::State &state)
{
    BuddyAllocator frames(1 << 20);
    BuddyPtAllocator allocator(frames);
    PageTable pt(allocator);
    constexpr std::uint64_t pages = 1 << 16;
    for (std::uint64_t p = 0; p < pages; ++p)
        pt.map(p << pageShift, frames.allocFrame());
    Rng rng(6);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            pt.lookup(rng.below(pages) << pageShift));
}
BENCHMARK(BM_SlabPageTableLookup);

/** A full hardware walk (PWC + hierarchy + slab chase) per iteration. */
static void
BM_PageWalk(benchmark::State &state)
{
    BuddyAllocator frames(1 << 20);
    BuddyPtAllocator allocator(frames);
    PageTable pt(allocator);
    constexpr std::uint64_t pages = 1 << 16;
    for (std::uint64_t p = 0; p < pages; ++p)
        pt.map(p << pageShift, frames.allocFrame());
    MemoryHierarchy mem;
    PageWalkCaches pwc;
    PageWalker walker(pt, mem, pwc);
    Rng rng(7);
    WalkResult result;
    Cycles now = 0;
    for (auto _ : state) {
        walker.walk(rng.below(pages) << pageShift, now, result);
        now += result.latency;
        benchmark::DoNotOptimize(result.translation.pfn);
    }
}
BENCHMARK(BM_PageWalk);

/**
 * Machine construction cost — the per-cell overhead every sweep pays
 * before its first simulated access. The config's five level names are
 * string literals, so constructing (and copying the config into) a
 * Machine performs no name-string heap work.
 */
static void
BM_MachineConstruction(benchmark::State &state)
{
    SystemConfig config;
    config.machineMemBytes = 256_MiB;
    System system(config);
    system.mmap(1_MiB, "heap", true);
    const MachineConfig machineConfig;
    for (auto _ : state) {
        Machine machine(system, machineConfig);
        benchmark::DoNotOptimize(&machine);
    }
}
BENCHMARK(BM_MachineConstruction);

/** Copying a MachineConfig (what SweepSpec::add and Machine do per
 *  cell): a flat member-wise copy, the names being literals. */
static void
BM_MachineConfigCopy(benchmark::State &state)
{
    const MachineConfig config;
    for (auto _ : state) {
        MachineConfig copy = config;
        benchmark::DoNotOptimize(&copy);
    }
}
BENCHMARK(BM_MachineConfigCopy);

BENCHMARK_MAIN();
