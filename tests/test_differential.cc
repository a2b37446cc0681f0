/**
 * @file
 * Differential model checking: randomized machine configurations and
 * address streams cross-check three independent implementations of
 * address translation against each other —
 *
 *   1. the optimized hot path: Machine::translate through the TLBs,
 *      PWCs (cached slab child indices) and the slab-index page walk;
 *   2. the functional slab lookup: PageTable::lookup / AddressSpace::
 *      translate (index-chased, no latency modeling);
 *   3. a naive reference translator written against the off-hot-path
 *      frame-keyed interface (rootPfn()/readEntry()/node(), i.e. the
 *      pfn -> slab-index hash), mirroring the x86 walk definition with
 *      no shared traversal code.
 *
 * Any divergence — a stale PWC child index, a slab index not matching
 * its frame, a TLB entry outliving its mapping, a miscomposed nested
 * translation — fails loudly with the iteration's seed. 200 seeded
 * iterations run under ctest (and under ASan/UBSan in CI), giving
 * future hot-path refactors a randomized safety net beyond the six
 * pinned Golden configurations.
 */

#include <vector>

#include <gtest/gtest.h>

#include "sim/environment.hh"
#include "sim/machine.hh"
#include "sim/system.hh"
#include "workloads/synthetic.hh"

using namespace asap;

namespace
{

/**
 * Reference translator: the architectural walk, implemented only in
 * terms of frame numbers and the hash-keyed node interface. Must agree
 * with PageTable::lookup() (which chases slab indices) bit-for-bit.
 */
std::optional<Translation>
naiveTranslate(const PageTable &pt, VirtAddr va)
{
    Pfn nodePfn = pt.rootPfn();
    for (unsigned level = pt.levels(); level >= 1; --level) {
        const Pte entry = pt.readEntry(nodePfn, va, level);
        if (!entry.present())
            return std::nullopt;
        if (entry.isLeaf(level)) {
            Translation t;
            t.pfn = entry.pfn();
            t.leafLevel = level;
            t.pteAddr = PageTable::entryPhysAddr(nodePfn, va, level);
            return t;
        }
        nodePfn = entry.pfn();
    }
    return std::nullopt;
}

/** A randomized but always-valid workload spec (small and fast). */
WorkloadSpec
randomSpec(Rng &rng)
{
    WorkloadSpec spec;
    spec.name = "diff";
    spec.paperGb = 1.0;
    spec.residentPages = rng.between(256, 2'048);
    spec.dataVmas = static_cast<unsigned>(rng.between(1, 3));
    spec.smallVmas = static_cast<unsigned>(rng.between(0, 6));
    spec.cyclesPerAccess = static_cast<unsigned>(rng.between(1, 8));
    if (rng.chance(0.3)) {
        spec.zipfTheta = 0.6 + 0.39 * rng.real();
    } else {
        spec.seqFraction = 0.3 * rng.real();
        spec.nearFraction = 0.2 * rng.real();
        spec.windowFraction =
            (1.0 - spec.seqFraction - spec.nearFraction) * rng.real();
        spec.windowPages = rng.between(32, 512);
    }
    spec.linesPerPage = static_cast<unsigned>(rng.between(0, 4));
    spec.burstContinueProb = 0.9 * rng.real();
    spec.machineMemBytes = 256_MiB;
    spec.guestMemBytes = 128_MiB;
    spec.churnOps = rng.below(8'000);
    spec.churnMaxOrder = static_cast<unsigned>(rng.between(1, 3));
    spec.guestChurnOps = rng.below(8'000);
    return spec;
}

EnvironmentOptions
randomOptions(Rng &rng)
{
    EnvironmentOptions options;
    options.virtualized = rng.chance(0.25);
    options.asapPlacement = rng.chance(0.5);
    if (options.virtualized)
        options.hostHugePages = rng.chance(0.25);
    if (rng.chance(0.1))
        options.ptLevels = numPtLevels5;
    if (options.asapPlacement && rng.chance(0.15))
        options.holeFraction = 0.3;
    if (rng.chance(0.1))
        options.pinnedProb = 0.2;
    options.seed = rng.next();
    return options;
}

/** Random machine with valid (power-of-two set count) geometries. */
MachineConfig
randomMachine(Rng &rng, bool virtualized)
{
    MachineConfig machine;

    struct TlbGeom { unsigned entries, ways; };
    const TlbGeom l1Choices[] = {{64, 8}, {32, 8}, {16, 4}, {128, 8}};
    const TlbGeom l2Choices[] = {{1536, 6}, {512, 8}, {384, 6}, {256, 4}};
    const TlbGeom l1 = l1Choices[rng.below(4)];
    const TlbGeom l2 = l2Choices[rng.below(4)];
    machine.tlb.l1.entries = l1.entries;
    machine.tlb.l1.ways = l1.ways;
    machine.tlb.l2.entries = l2.entries;
    machine.tlb.l2.ways = l2.ways;
    // The clustered L2 needs the guest PT at fill time, which the
    // nested (virtualized) path does not carry.
    machine.tlb.clusteredL2 = !virtualized && rng.chance(0.3);

    const unsigned llcSets[] = {1'024, 2'048, 4'096};
    const unsigned llcWays[] = {8, 16, 20};
    const unsigned sets = llcSets[rng.below(3)];
    const unsigned ways = llcWays[rng.below(3)];
    machine.mem.llc.sizeBytes =
        static_cast<std::uint64_t>(sets) * ways * lineSize;
    machine.mem.llc.ways = ways;
    machine.mem.l1d.sizeBytes = rng.chance(0.5) ? 16_KiB : 32_KiB;
    machine.mem.l2.sizeBytes = rng.chance(0.5) ? 128_KiB : 256_KiB;

    machine.pwcScale = rng.chance(0.25) ? 2 : 1;
    if (rng.chance(0.5)) {
        machine.appAsap =
            rng.chance(0.5) ? AsapConfig::p1p2() : AsapConfig::p1();
        if (virtualized && rng.chance(0.5))
            machine.hostAsap = AsapConfig::p2();
    }
    return machine;
}

} // namespace

TEST(Differential, RandomConfigsAgreeAcrossTranslationPaths)
{
    constexpr unsigned iterations = 200;
    constexpr unsigned addressesPerIteration = 400;

    for (unsigned iter = 0; iter < iterations; ++iter) {
        Rng rng(mix64(0xd1ffe12ull + iter));
        SCOPED_TRACE(testing::Message() << "iteration " << iter);

        const WorkloadSpec spec = randomSpec(rng);
        const EnvironmentOptions options = randomOptions(rng);
        System system(makeSystemConfig(spec, options));
        SyntheticWorkload workload(spec);
        workload.setup(system);

        // Two independently configured machines over the same System:
        // different TLB/cache/PWC/ASAP settings may only change timing,
        // never the translation function.
        Machine machineA(system,
                         randomMachine(rng, options.virtualized));
        Machine machineB(system,
                         randomMachine(rng, options.virtualized));

        const auto vmas = system.appSpace().vmas().all();
        workload.reset(rng);
        Cycles now = 0;
        for (unsigned i = 0; i < addressesPerIteration; ++i) {
            // Mostly the workload's stream; every 8th address is a
            // uniform pick inside a random VMA, reaching the small
            // (never-generated) VMAs and their demand-fault path.
            VirtAddr va;
            if (i % 8 == 7) {
                const Vma *vma = vmas[rng.below(vmas.size())];
                va = vma->start + rng.below(vma->sizeBytes());
            } else {
                va = workload.next(rng);
            }
            now += 37;

            const auto a = machineA.translate(va, now);
            const auto b = machineB.translate(va, now);
            ASSERT_EQ(a.translation.pfn, b.translation.pfn)
                << "machines diverge at va " << std::hex << va;
            ASSERT_EQ(a.translation.leafLevel, b.translation.leafLevel);

            // Functional guest-side lookup (slab-index chase) vs the
            // naive frame-keyed reference.
            const auto functional = system.appSpace().translate(va);
            ASSERT_TRUE(functional.has_value());
            const auto naive = naiveTranslate(
                system.appSpace().pageTable(), va);
            ASSERT_TRUE(naive.has_value());
            ASSERT_EQ(naive->pfn, functional->pfn);
            ASSERT_EQ(naive->leafLevel, functional->leafLevel);
            ASSERT_EQ(naive->pteAddr, functional->pteAddr);

            if (!options.virtualized) {
                ASSERT_EQ(a.translation.pfn, functional->pfn)
                    << "hot path diverges from functional lookup at va "
                    << std::hex << va;
                ASSERT_EQ(a.translation.leafLevel,
                          functional->leafLevel);
            } else {
                // The machine installs the composed gVA -> host-frame
                // translation; recompose it functionally.
                const PhysAddr gpa = functional->physAddrOf(va);
                const PhysAddr hpa = system.hostPhysOf(gpa);
                ASSERT_EQ(a.translation.physAddrOf(va), hpa)
                    << "composed nested translation diverges at va "
                    << std::hex << va;

                // Host dimension: slab lookup vs naive reference.
                const auto hostSlab = system.hostPt().lookup(gpa);
                const auto hostNaive =
                    naiveTranslate(system.hostPt(), gpa);
                ASSERT_TRUE(hostSlab.has_value());
                ASSERT_TRUE(hostNaive.has_value());
                ASSERT_EQ(hostNaive->pfn, hostSlab->pfn);
                ASSERT_EQ(hostNaive->leafLevel, hostSlab->leafLevel);
                ASSERT_EQ(hostNaive->pteAddr, hostSlab->pteAddr);
            }
        }
    }
}

/** The slab/index agreement: every PT node reachable by index is the
 *  node the frame-keyed map returns for its pfn. */
TEST(Differential, SlabIndexAndFrameMapAgree)
{
    for (unsigned iter = 0; iter < 20; ++iter) {
        Rng rng(mix64(0x51ab ^ iter));
        const WorkloadSpec spec = randomSpec(rng);
        System system(makeSystemConfig(spec, randomOptions(rng)));
        SyntheticWorkload workload(spec);
        workload.setup(system);

        const PageTable &pt = system.appPt();
        for (const Pfn pfn : pt.nodePfns()) {
            const PtNode *byFrame = pt.node(pfn);
            ASSERT_NE(byFrame, nullptr);
            ASSERT_EQ(byFrame->pfn, pfn);
            const PtNodeIndex index = pt.indexOf(pfn);
            ASSERT_NE(index, invalidPtNodeIndex);
            ASSERT_EQ(&pt.nodeAt(index), byFrame);
        }
    }
}
