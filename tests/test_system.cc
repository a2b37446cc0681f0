/**
 * @file
 * System construction and prefault: the digests that pin where every
 * frame of a built System lands (suite SystemDigest), and the range
 * prefault path against the per-page one.
 */

#include <map>

#include <gtest/gtest.h>

#include "golden_scenarios.hh"
#include "trace/setup_capture.hh"

using namespace asap;

namespace
{

// Captured with `golden_dump --systems`; regenerate only for an
// intentional change to frame placement.
const std::map<std::string, golden::SystemDigest> expected = {
    {"mcf_native",
     {0x1f860c7a85a2e8f2, 0xf4f03ae26bf4ff10, 0x6c658c572acc57d4,
      0x1584384d3e17c349, 0xdafd9c79c56717b4}},
    {"mcf_native_asap",
     {0x4b9007e699355a4d, 0x7e9c3fac0c828d82, 0xfac7972ccc668fe6,
      0x7e03b595a62e4b7d, 0x8b99fdd1f9a8833e}},
    {"mcf_virt",
     {0x5f054bb70f73a320, 0xdee167f52e094233, 0x074429e02213222a,
      0xc82dee438e4f04c2, 0xeef739a767fc9179}},
    {"mcf_virt_asap",
     {0x1d77cf6339a69d54, 0x497a29c73c5398a8, 0x1ec817508221b8a5,
      0xfcf0a22feccf24d5, 0xa259e49a7e16d598}},
    {"canneal_native",
     {0x659fe0727456fb1e, 0x871ede27a0f80910, 0x13b6e670b3747671,
      0xa9264c3f3dba2b1a, 0x000bad99152ab72a}},
    {"canneal_native_asap",
     {0x52fbfffc7f3d8b82, 0x3bb88ee6c9c7c163, 0x6e4d421a38a0d0bd,
      0xe4ec5741c773bf38, 0x9f526d0b8b6ff402}},
    {"canneal_virt",
     {0x8c677504568547e1, 0x72d1f330fe29bbec, 0x4ebc9dd9513535d3,
      0xebbcc4008ca3a49c, 0x9cb01f6972ad0d40}},
    {"canneal_virt_asap",
     {0x052867dd867ae7a4, 0x6b2ea3e13177e06b, 0xc77a79b6aca2ac8b,
      0x684694db3fc384e6, 0x88db24253687d92e}},
    {"bfs_native",
     {0x7cfd52a21a5dd6d9, 0xf5fbb2e3a3d3c969, 0xda7d10e0502a966d,
      0xddff4cf03955269f, 0x178e2c3bc5806290}},
    {"bfs_native_asap",
     {0x81c5dd6baeac1776, 0xb8c60246a78836df, 0x227581f59d3352f3,
      0xd93cb9d80b7dda0a, 0xb67d087dc900d146}},
    {"bfs_virt",
     {0x5f27fc7a240dfa82, 0x00777b60958c8061, 0x006732baa7ddc0e3,
      0xb41721a64529b0a8, 0xf94bffa4389eb799}},
    {"bfs_virt_asap",
     {0xa14386d547e4f0f1, 0xaaade976f68e1c30, 0xec817bf5a836d44b,
      0x5d9450dda5965c34, 0x3ec510d10be8fec4}},
    {"pagerank_native",
     {0x4cdfb8bd8a8decd0, 0xe275a95ef96dcbb1, 0xa245d709a4d9d395,
      0x8bc1312df69fff6e, 0xaa18f7c701403e20}},
    {"pagerank_native_asap",
     {0xdf117618009222df, 0x3e57515d2ea1a25f, 0x717e58ed2dbf4ac3,
      0x538c86d69cf733b4, 0x14e0c8a2f4e85cd6}},
    {"pagerank_virt",
     {0xf78ac6b31065e9a5, 0x26e74a78d226e919, 0x06e88a7d16ff143b,
      0xf484d930e5180abc, 0x23b25ff6faa08b39}},
    {"pagerank_virt_asap",
     {0x7aad6e2faa30e475, 0xe282a55a6e55a25e, 0x8cc535ebf7ae660b,
      0xd754a0eb7d7d0f59, 0x6135b2acde7b8504}},
    {"mc80_native",
     {0x14a4e94c4f8b87fe, 0xbaaac43e4487e509, 0x977eefe7042dd1bc,
      0xa6020ca11a684c5f, 0x086c3c9a605b8154}},
    {"mc80_native_asap",
     {0x2978f2c6aa05eda3, 0x308158c3b60ea129, 0x5adc42719b70a4e4,
      0xe522cee6989228a7, 0xcda27d219be901a5}},
    {"mc80_virt",
     {0x3841dd8836e4e067, 0x14966b6f738f7471, 0xd33bbbdc589b2398,
      0xd3b4131a696a2493, 0x10d2d83c68c1d945}},
    {"mc80_virt_asap",
     {0x386c0ace8b01498f, 0xce1940786d05ae3c, 0x2fed1ff764e59b82,
      0x2ff459c956e7a9da, 0x6b8de89319706b06}},
    {"mc400_native",
     {0x89759754232a2c31, 0x5a5c0d85d7bda06f, 0xe6955a6315737fa2,
      0x248b676b0a340cb7, 0xe38e25130296ad86}},
    {"mc400_native_asap",
     {0x8312eb9ed71703f1, 0x050a64438e64fab8, 0x3697d3130e3ac7fa,
      0x32454265c59dc574, 0xaf29adc6789e030c}},
    {"mc400_virt",
     {0xa06c45a008fb9102, 0x67d0d54f488a0a5f, 0x59bb440a5f0e62d4,
      0x0fe69d99af689194, 0xa0647e272b4d6349}},
    {"mc400_virt_asap",
     {0x3fddb6799f9dc7c6, 0xd1d2e5f1d7477dd9, 0x0c6afa5fe16bbeae,
      0x19c855542b030db9, 0x7cdbaf5ab7e6f461}},
    {"redis_native",
     {0xd27fba30c5ed2698, 0x481a6f5ac71b1c5f, 0x148bb4f86deb20b3,
      0x212223904cf5cdb4, 0x14d5d37da1b18150}},
    {"redis_native_asap",
     {0x16cfdecafc3545d9, 0xf862b53729bc51ac, 0xa5a8e4770a520267,
      0x3340be4ffb358cab, 0x25d1c60f569d4685}},
    {"redis_virt",
     {0xe987a69e914510fa, 0xfe03ae37aa57eb88, 0xa68ff12cb2b81305,
      0x2b6efa5e1f21b3d5, 0x3a8917274a105123}},
    {"redis_virt_asap",
     {0xbd6b498163cffb1a, 0xf9ae368b26236dfb, 0xaee8d6db9b2d76bc,
      0x935d0a8bac46c0d4, 0x396de75ef26e1f27}},
    {"mcf_virt_asap_hosthuge",
     {0x51ca11a3a1007d04, 0x1debab6c360e339e, 0x60ae2a3044a0f4d4,
      0x0622778d93c546e9, 0x0e43bd0327aebbf6}},
    {"mcf_native_asap_pinned_holes",
     {0x438bbd618668e72c, 0x3f80c8d6dc635591, 0x435b2d867cb740b8,
      0x47e9d2a27f84e4a7, 0xa1857c872a73523f}},
    {"mcf_virt_asap_5level",
     {0x08461ff29e9820c7, 0x91bdca4acd3dc850, 0x7c1e1a51054f47a6,
      0x17eff5417122dd0a, 0xf77d3c7c0c25f911}},
};

} // namespace

TEST(SystemDigest, SuiteBuildsMatchParent)
{
    const std::vector<golden::SystemShape> shapes = golden::systemShapes();
    ASSERT_EQ(shapes.size(), expected.size());
    for (const golden::SystemShape &shape : shapes) {
        SCOPED_TRACE(shape.name);
        const auto it = expected.find(shape.name);
        ASSERT_NE(it, expected.end());
        const golden::SystemDigest got = golden::buildAndDigest(shape);
        EXPECT_EQ(got.pageTables, it->second.pageTables);
        EXPECT_EQ(got.layout, it->second.layout);
        EXPECT_EQ(got.counters, it->second.counters);
        EXPECT_EQ(got.growth, it->second.growth);
        EXPECT_EQ(got.frames, it->second.frames);
    }
}

namespace
{

/** The fault-serving shapes the range path must reproduce. */
std::vector<std::pair<std::string, SystemConfig>>
touchShapes()
{
    SystemConfig base;
    base.machineMemBytes = 2_GiB;
    base.guestMemBytes = 512_MiB;
    base.churnOps = 2'000;
    base.guestChurnOps = 2'000;
    base.seed = 5;

    SystemConfig virt = base;
    virt.virtualized = true;
    virt.asapPlacement = true;

    SystemConfig hostHuge = virt;
    hostHuge.hostHugePages = true;

    SystemConfig pinned = base;
    pinned.asapPlacement = true;
    pinned.pinnedProb = 0.5;

    SystemConfig fiveLevel = virt;
    fiveLevel.ptLevels = 5;
    fiveLevel.hostPtLevels = 5;

    return {{"native", base},
            {"virt", virt},
            {"virt_hosthuge", hostHuge},
            {"native_pinned", pinned},
            {"virt_5level", fiveLevel}};
}

struct TouchOutcome
{
    std::string setupOps;
    std::uint64_t faults = 0;
    golden::SystemDigest digest{};
};

/**
 * Build @p config, map a 2GiB heap plus two adjacent small VMAs, and
 * touch a fixed list of runs — page by page, or one touchRange each.
 */
TouchOutcome
buildAndTouch(const SystemConfig &config, bool ranged)
{
    System system(config);
    SetupCapture capture;
    system.setRecorder(&capture);
    const std::uint64_t heap = system.mmap(2_GiB, "heap", true);
    const VirtAddr base = system.appSpace().vmas().byId(heap)->start;
    const VirtAddr pair = base + 8_GiB;
    system.appSpace().mmapAt(pair, 64 * pageSize, "left");
    system.appSpace().mmapAt(pair + 64 * pageSize, 64 * pageSize, "right");

    const std::vector<std::pair<VirtAddr, std::uint64_t>> runs = {
        {base, 1},                                // a single page
        {base + 10 * pageSize, 40},               // inside one PL1 node
        {base + 500 * pageSize, 30},              // across a PL1 boundary
        {base + 1_GiB - 100 * pageSize, 200},     // across a PL2 boundary
        {base + 5 * pageSize, 60},                // over touched pages
        {base, 1100},                             // mostly touched
        {base + 700 * pageSize + 0x123, 5},       // unaligned start
        {pair + 60 * pageSize, 10},               // into the next VMA
    };
    for (const auto &[start, pages] : runs) {
        if (ranged) {
            system.touchRange(start, pages);
        } else {
            for (std::uint64_t i = 0; i < pages; ++i)
                system.touch(start + i * pageSize);
        }
    }
    system.setRecorder(nullptr);

    TouchOutcome outcome;
    outcome.setupOps = capture.take();
    outcome.faults = system.appSpace().pageFaults();
    outcome.digest = golden::digestSystem(system);
    return outcome;
}

} // namespace

TEST(System, TouchRangeMatchesPerPageTouch)
{
    for (const auto &[name, config] : touchShapes()) {
        SCOPED_TRACE(name);
        const TouchOutcome perPage = buildAndTouch(config, false);
        const TouchOutcome ranged = buildAndTouch(config, true);
        EXPECT_EQ(ranged.setupOps, perPage.setupOps);
        EXPECT_EQ(ranged.faults, perPage.faults);
        EXPECT_EQ(ranged.faults, 1'310u);   // distinct pages touched
        EXPECT_TRUE(ranged.digest == perPage.digest);
    }
}

TEST(SystemDeathTest, TouchRangeIntoGapPanicsLikeTouch)
{
    SystemConfig config;
    config.machineMemBytes = 256_MiB;
    System system(config);
    const std::uint64_t id = system.mmap(16 * pageSize, "heap");
    const VirtAddr start = system.appSpace().vmas().byId(id)->start;
    const VirtAddr gap = start + 16 * pageSize;
    const std::string message =
        strprintf("touch outside any VMA: %#lx", gap);
    EXPECT_DEATH(system.touch(gap), message);
    EXPECT_DEATH(system.touchRange(start + 10 * pageSize, 10), message);
}
