/**
 * @file
 * ASAPTRC2 container tests: conversion identity (from a legacy
 * ASAPTRC1 file and between chunkings) and replay equivalence (the
 * acceptance bar: bit-identical RunStats against the live generator,
 * in more than one environment), sampled-stream mode, and corruption
 * handling of the chunk index / footer / compressed payloads.
 */

#include <cstdio>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "expect_status.hh"
#include "golden_scenarios.hh"
#include "legacy_trace.hh"
#include "sim/environment.hh"
#include "trace/convert.hh"
#include "workloads/suite.hh"
#include "workloads/trace.hh"

using namespace asap;

namespace
{

/** Small, fast generator spec for the format-level tests. */
WorkloadSpec
smallSpec()
{
    WorkloadSpec spec;
    spec.name = "small";
    spec.paperGb = 2.5;
    spec.residentPages = 6'000;
    spec.dataVmas = 3;
    spec.smallVmas = 5;
    spec.cyclesPerAccess = 4;
    spec.windowFraction = 0.5;
    spec.windowPages = 600;
    spec.nearFraction = 0.1;
    spec.seqFraction = 0.1;
    spec.linesPerPage = 2;
    spec.burstContinueProb = 0.5;
    spec.machineMemBytes = 512_MiB;
    spec.guestMemBytes = 128_MiB;
    spec.churnOps = 5'000;
    spec.churnMaxOrder = 2;
    return spec;
}

/** RAII deleter so test artifacts do not pile up in the build tree. */
class TempTrace
{
  public:
    explicit TempTrace(std::string path) : path_(std::move(path)) {}
    ~TempTrace() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** All stored addresses of @p path, decoded through TraceCursor. */
std::vector<VirtAddr>
decodeAll(const std::string &path)
{
    const TraceFile file(path);
    TraceCursor cursor(file);
    std::vector<VirtAddr> out(file.header().accessCount);
    for (VirtAddr &va : out)
        va = cursor.next();
    return out;
}

/** Run @p spec on a fresh System (live generator or trace replay). */
RunStats
runFresh(const WorkloadSpec &spec, const EnvironmentOptions &options,
         const MachineConfig &machine, const RunConfig &run)
{
    System system(makeSystemConfig(spec, options));
    const auto workload = makeWorkload(spec);
    workload->setup(system);
    Machine m(system, machine);
    Simulator simulator(system, m, *workload);
    return simulator.run(run);
}

/** Copy @p src to @p dst with byte @p offset xor'd by @p mask. */
void
corruptCopy(const std::string &src, const std::string &dst,
            std::uint64_t offset, std::uint8_t mask)
{
    std::FILE *in = std::fopen(src.c_str(), "rb");
    ASSERT_NE(in, nullptr);
    std::fseek(in, 0, SEEK_END);
    std::vector<unsigned char> bytes(
        static_cast<std::size_t>(std::ftell(in)));
    std::fseek(in, 0, SEEK_SET);
    ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), in),
              bytes.size());
    std::fclose(in);
    ASSERT_LT(offset, bytes.size());
    bytes[offset] ^= mask;
    std::FILE *out = std::fopen(dst.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), out),
              bytes.size());
    std::fclose(out);
}

} // namespace

/** Legacy ASAPTRC1 -> ASAPTRC2 conversion preserves the header, the
 *  setup ops and every address of the stream, compressed or not. */
TEST(Trc2Convert, ConversionIdentity)
{
    const TempTrace recorded("trc2_identity_rec.trc2");
    const TempTrace v1("trc2_identity.trc1");
    const TempTrace v2("trc2_identity.trc2");
    const TempTrace v2raw("trc2_identity_raw.trc2");
    const TempTrace v2again("trc2_identity_again.trc2");
    recordTrace(smallSpec(), recorded.path(), /*seed=*/11,
                /*accesses=*/5'000);
    testutil::writeLegacyTrace(recorded.path(), v1.path());

    Trc2Options options;
    options.chunkAccesses = 512;
    convertToV2(v1.path(), v2.path(), options);
    options.compress = false;
    convertToV2(v1.path(), v2raw.path(), options);
    // v2 -> v2 re-containering with a different chunking.
    options.chunkAccesses = 300;
    options.compress = true;
    convertToV2(v2.path(), v2again.path(), options);

    const std::vector<VirtAddr> reference = decodeAll(recorded.path());
    EXPECT_EQ(decodeAll(v1.path()), reference);
    EXPECT_EQ(decodeAll(v2.path()), reference);
    EXPECT_EQ(decodeAll(v2raw.path()), reference);
    EXPECT_EQ(decodeAll(v2again.path()), reference);

    const TraceFile a(v1.path());
    const TraceFile b(v2.path());
    EXPECT_EQ(a.version(), 1u);
    EXPECT_EQ(b.version(), 2u);
    EXPECT_EQ(b.header().name, a.header().name);
    EXPECT_EQ(b.header().accessCount, a.header().accessCount);
    EXPECT_EQ(b.header().representedAccesses,
              a.header().representedAccesses);
    EXPECT_EQ(b.header().recordSeed, a.header().recordSeed);
    EXPECT_EQ(b.header().machineMemBytes, a.header().machineMemBytes);
    ASSERT_EQ(a.opsEnd() - a.opsBegin(), b.opsEnd() - b.opsBegin());
    EXPECT_EQ(0, std::memcmp(a.opsBegin(), b.opsBegin(),
                             static_cast<std::size_t>(a.opsEnd() -
                                                      a.opsBegin())));

    // traceSpec (and hence specByName("trace:...")) sees v2 files.
    const WorkloadSpec spec = traceSpec(v2.path());
    EXPECT_EQ(spec.name, "small");
    EXPECT_EQ(spec.tracePath, v2.path());
}

/** Two chunkings of one recording decode to the same stream. */
TEST(Trc2Convert, RechunkedRecordingDecodesIdentically)
{
    const TempTrace whole("trc2_direct_whole.trc2");
    const TempTrace chunked("trc2_direct_chunked.trc2");
    recordTrace(smallSpec(), whole.path(), 7, 3'000);
    RecordOptions options;
    options.v2.chunkAccesses = 777;
    recordTrace(smallSpec(), chunked.path(), 7, 3'000, options);

    EXPECT_EQ(decodeAll(chunked.path()), decodeAll(whole.path()));
    EXPECT_EQ(TraceFile(whole.path()).chunks().size(), 1u);
    const TraceFile file(chunked.path());
    EXPECT_EQ(file.version(), 2u);
    EXPECT_EQ(file.chunks().size(), (3'000 + 776) / 777u);
}

/** Sampled-stream mode stores exactly the 1-in-N chunks of the full
 *  chunking and keeps the represented total for scaling. */
TEST(Trc2Convert, SampledStream)
{
    const TempTrace recorded("trc2_sampled_src.trc2");
    const TempTrace v2("trc2_sampled.trc2");
    constexpr std::uint64_t accesses = 4'000;
    constexpr std::uint32_t chunk = 128;
    constexpr std::uint32_t interval = 4;
    recordTrace(smallSpec(), recorded.path(), 5, accesses);
    Trc2Options options;
    options.chunkAccesses = chunk;
    options.sampleInterval = interval;
    convertToV2(recorded.path(), v2.path(), options);

    const std::vector<VirtAddr> reference = decodeAll(recorded.path());
    std::vector<VirtAddr> expected;
    for (std::uint64_t at = 0; at < accesses; at += chunk) {
        if ((at / chunk) % interval != 0)
            continue;
        for (std::uint64_t i = at; i < at + chunk && i < accesses; ++i)
            expected.push_back(reference[i]);
    }
    EXPECT_EQ(decodeAll(v2.path()), expected);

    const TraceFile file(v2.path());
    EXPECT_EQ(file.header().accessCount, expected.size());
    EXPECT_EQ(file.header().representedAccesses, accesses);
    EXPECT_EQ(file.header().sampleInterval, interval);

    // Re-containering the sampled trace keeps the represented total.
    const TempTrace again("trc2_sampled_again.trc2");
    convertToV2(v2.path(), again.path(), Trc2Options{});
    const TraceFile reFile(again.path());
    EXPECT_EQ(reFile.header().representedAccesses, accesses);
    EXPECT_EQ(reFile.header().accessCount, expected.size());
}

/** Corrupt v2 files must fail as recoverable StatusErrors at load or
 *  decode, never read out of bounds. */
TEST(Trc2Corruption, FooterIndexAndPayload)
{
    const TempTrace recorded("trc2_corrupt_src.trc2");
    const TempTrace v2("trc2_corrupt.trc2");
    recordTrace(smallSpec(), recorded.path(), 7, 2'000);
    Trc2Options options;
    options.chunkAccesses = 512;
    convertToV2(recorded.path(), v2.path(), options);

    const TraceFile valid(v2.path());
    const std::uint64_t fileBytes = valid.fileBytes();
    ASSERT_GT(valid.chunks().size(), 1u);
    const bool compressed =
        valid.chunks()[0].codec == chunkCodecDeflate;

    // Footer magic.
    const TempTrace badFooter("trc2_corrupt_footer.trc2");
    corruptCopy(v2.path(), badFooter.path(), fileBytes - 1, 0xff);
    testutil::expectStatusError([&] { TraceFile{badFooter.path()}; },
                                StatusCode::DataLoss,
                                "bad trace footer");

    // Index offset pointing nowhere sane.
    const TempTrace badIndex("trc2_corrupt_index.trc2");
    corruptCopy(v2.path(), badIndex.path(), fileBytes - 24, 0xff);
    testutil::expectStatusError([&] { TraceFile{badIndex.path()}; },
                                "chunk index|truncated");

    // A truncated file loses the footer entirely.
    const TempTrace cut("trc2_corrupt_cut.trc2");
    {
        std::FILE *in = std::fopen(v2.path().c_str(), "rb");
        ASSERT_NE(in, nullptr);
        std::vector<char> bytes(static_cast<std::size_t>(fileBytes / 2));
        ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), in),
                  bytes.size());
        std::fclose(in);
        std::FILE *out = std::fopen(cut.path().c_str(), "wb");
        ASSERT_NE(out, nullptr);
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), out),
                  bytes.size());
        std::fclose(out);
    }
    testutil::expectStatusError([&] { TraceFile{cut.path()}; },
                                "truncated|footer|index");

    // A flipped byte inside a compressed payload fails the zlib
    // checksum when the chunk is decoded.
    if (compressed) {
        const TempTrace badPayload("trc2_corrupt_payload.trc2");
        corruptCopy(v2.path(), badPayload.path(),
                    valid.chunks()[0].offset + 10, 0x55);
        testutil::expectStatusError(
            [&] { decodeAll(badPayload.path()); }, "decompress");
    }
}

/**
 * The acceptance bar: a recorded trace re-containered as compressed
 * ASAPTRC2 replays with bit-identical RunStats for every workload of
 * the standard suite — and in two structurally different golden
 * environments (native baseline and virtualized 2D) for the suite's
 * first workload.
 */
TEST(Trc2Replay, RoundTripAllSuiteWorkloads)
{
    RunConfig run;
    run.warmupAccesses = 2'000;
    run.measureAccesses = 8'000;
    run.seed = 7;

    const MachineConfig machine;
    bool virtChecked = false;
    for (const WorkloadSpec &full : standardSuite()) {
        SCOPED_TRACE(full.name);
        const WorkloadSpec spec = scaledDown(full, 64);
        const TempTrace recorded("trc2_roundtrip_" + full.name +
                                 "_src.trc2");
        const TempTrace v2("trc2_roundtrip_" + full.name + ".trc2");
        recordTrace(spec, recorded.path(), run.seed,
                    run.warmupAccesses + run.measureAccesses);
        convertToV2(recorded.path(), v2.path(), Trc2Options{});
        const WorkloadSpec replay = traceSpec(v2.path());

        const EnvironmentOptions native;
        const RunStats live = runFresh(spec, native, machine, run);
        const RunStats replayed = runFresh(replay, native, machine, run);
        golden::expectSameStats(live, replayed, "native replay vs live");

        if (!virtChecked) {
            // Second golden environment: virtualized 2D walks.
            EnvironmentOptions virt;
            virt.virtualized = true;
            const RunStats liveVirt = runFresh(spec, virt, machine, run);
            const RunStats replayedVirt =
                runFresh(replay, virt, machine, run);
            golden::expectSameStats(liveVirt, replayedVirt,
                                    "virt replay vs live");
            virtChecked = true;
        }
    }
}

/** The library-level round-trip checker the CLI --verify runs. */
TEST(Trc2Replay, ReplayStatsMatchHelper)
{
    const TempTrace recorded("trc2_verify_src.trc2");
    const TempTrace v2("trc2_verify.trc2");
    recordTrace(scaledDown(mcfSpec(), 64), recorded.path(), 7, 12'000);
    convertToV2(recorded.path(), v2.path(), Trc2Options{});

    std::string report;
    EXPECT_TRUE(replayStatsMatch(recorded.path(), v2.path(), 2'000,
                                 10'000, report))
        << report;

    // A different workload's trace must NOT match (sanity that the
    // checker can fail).
    const TempTrace other("trc2_verify_other.trc2");
    recordTrace(scaledDown(cannealSpec(), 64), other.path(), 7, 12'000);
    EXPECT_FALSE(replayStatsMatch(recorded.path(), other.path(), 2'000,
                                  10'000, report));
    EXPECT_FALSE(report.empty());
}
