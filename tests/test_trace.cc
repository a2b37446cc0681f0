/**
 * @file
 * Trace-replay backend tests: format round-trips, stream equivalence
 * with the source generator, nextBatch boundary/wrap behaviour, and the
 * headline guarantee — record → replay reproduces the live-generator
 * RunStats bit-for-bit for every workload of the standard suite.
 *
 * Trace files are written into the test's working directory (the build
 * tree under ctest) with per-test names, so parallel test binaries
 * never collide.
 */

#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "expect_status.hh"
#include "golden_scenarios.hh"
#include "legacy_trace.hh"
#include "sim/environment.hh"
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

/** The addresses a fresh replay of @p path yields via next(). */
std::vector<VirtAddr>
replayAddresses(const std::string &path, std::size_t count)
{
    TraceReplayWorkload replay(path);
    Rng unused(1);
    replay.reset(unused);
    std::vector<VirtAddr> out(count);
    for (std::size_t i = 0; i < count; ++i)
        out[i] = replay.next(unused);
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

} // namespace

TEST(TraceFormat, HeaderRoundTrip)
{
    const TempTrace trace("trace_header_roundtrip.asaptrace");
    const WorkloadSpec spec = smallSpec();
    recordTrace(spec, trace.path(), /*seed=*/11, /*accesses=*/500);

    const WorkloadSpec loaded = traceSpec(trace.path());
    EXPECT_EQ(loaded.name, spec.name);
    EXPECT_EQ(loaded.tracePath, trace.path());
    EXPECT_DOUBLE_EQ(loaded.paperGb, spec.paperGb);
    EXPECT_EQ(loaded.residentPages, spec.residentPages);
    EXPECT_EQ(loaded.cyclesPerAccess, spec.cyclesPerAccess);
    EXPECT_EQ(loaded.machineMemBytes, spec.machineMemBytes);
    EXPECT_EQ(loaded.guestMemBytes, spec.guestMemBytes);
    EXPECT_EQ(loaded.churnOps, spec.churnOps);
    EXPECT_EQ(loaded.guestChurnOps, spec.guestChurnOps);
    EXPECT_EQ(loaded.churnMaxOrder, spec.churnMaxOrder);

    const TraceFile file(trace.path());
    EXPECT_EQ(file.header().accessCount, 500u);
    EXPECT_EQ(file.header().recordSeed, 11u);
}

TEST(TraceFormat, SpecByNameTracePrefix)
{
    const TempTrace trace("trace_specbyname.asaptrace");
    recordTrace(smallSpec(), trace.path(), 7, 200);

    const auto spec = specByName("trace:" + trace.path());
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->name, "small");
    EXPECT_EQ(spec->tracePath, trace.path());

    // Trace-backed specs are immune to quick/scaled shrinking: the
    // recorded stream cannot be rescaled.
    const WorkloadSpec scaled = scaledDown(*spec, 4);
    EXPECT_EQ(scaled.residentPages, spec->residentPages);
    EXPECT_EQ(scaled.churnOps, spec->churnOps);
}

/** Malformed inputs (wrong magic, truncation) must surface as a
 *  DataLoss StatusError with a clear message, never read out of
 *  bounds — traces may come from external converters. */
TEST(TraceFormat, MalformedTraceIsFatal)
{
    const TempTrace garbage("trace_garbage.asaptrace");
    {
        std::FILE *f = std::fopen(garbage.path().c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("definitely not a trace file, but long enough",
                   f);
        std::fclose(f);
    }
    testutil::expectStatusError([&] { TraceFile{garbage.path()}; },
                                StatusCode::DataLoss,
                                "not an ASAP trace");

    // A valid trace cut mid-file must be rejected at load.
    const TempTrace valid("trace_truncate_src.asaptrace");
    recordTrace(smallSpec(), valid.path(), 7, 200);
    const TempTrace cut("trace_truncated.asaptrace");
    {
        std::FILE *in = std::fopen(valid.path().c_str(), "rb");
        ASSERT_NE(in, nullptr);
        std::vector<char> bytes(400);
        const std::size_t got =
            std::fread(bytes.data(), 1, bytes.size(), in);
        std::fclose(in);
        ASSERT_EQ(got, bytes.size());
        std::FILE *out = std::fopen(cut.path().c_str(), "wb");
        ASSERT_NE(out, nullptr);
        std::fwrite(bytes.data(), 1, bytes.size() / 2, out);
        std::fclose(out);
    }
    testutil::expectStatusError([&] { TraceFile{cut.path()}; },
                                "truncated");
}

/** A header whose access count exceeds what the stream bytes can hold
 *  (each delta is at least one varint byte) is rejected at load, not
 *  mid-replay. Crafted by hand: the field offsets depend on the name. */
TEST(TraceFormat, StreamShorterThanAccessCountIsFatal)
{
    std::string bytes;
    bytes.append("ASAPTRC1", 8);
    put32(bytes, 1);            // version
    put32(bytes, 0);            // reserved
    putString(bytes, "x");      // name
    put32(bytes, 4);            // cyclesPerAccess
    put64(bytes, doubleToBits(1.0));
    put64(bytes, 100);          // residentPages
    put64(bytes, 1_GiB);        // machineMemBytes
    put64(bytes, 256_MiB);      // guestMemBytes
    put64(bytes, 0);            // churnOps
    put64(bytes, 0);            // guestChurnOps
    put32(bytes, 0);            // churnMaxOrder
    put64(bytes, 7);            // recordSeed
    put64(bytes, 0);            // opBytes (no setup ops)
    put64(bytes, 5);            // accessCount: 5 ...
    put64(bytes, 2);            // ... but only 2 stream bytes
    bytes.push_back(2);
    bytes.push_back(4);

    const TempTrace bad("trace_short_stream.asaptrace");
    {
        std::FILE *f = std::fopen(bad.path().c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
        std::fclose(f);
    }
    testutil::expectStatusError([&] { TraceFile{bad.path()}; },
                                "shorter than access count");
}

/** A stream byte with its varint continuation bit forced on makes the
 *  last delta run past the section end: the decoder must fatal() when
 *  it gets there, not read on. An ASAPTRC1 file ends with its stream,
 *  so the flipped byte is the stream's last. */
TEST(TraceFormat, CorruptStreamVarintIsFatal)
{
    const TempTrace recorded("trace_varint_rec.asaptrace");
    const TempTrace valid("trace_varint_src.asaptrace");
    recordTrace(smallSpec(), recorded.path(), 7, 200);
    testutil::writeLegacyTrace(recorded.path(), valid.path());

    std::string bytes;
    {
        std::FILE *in = std::fopen(valid.path().c_str(), "rb");
        ASSERT_NE(in, nullptr);
        char buffer[4096];
        std::size_t n;
        while ((n = std::fread(buffer, 1, sizeof(buffer), in)) > 0)
            bytes.append(buffer, n);
        std::fclose(in);
    }
    bytes.back() = static_cast<char>(bytes.back() | 0x80);

    const TempTrace bad("trace_varint_bad.asaptrace");
    {
        std::FILE *out = std::fopen(bad.path().c_str(), "wb");
        ASSERT_NE(out, nullptr);
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), out),
                  bytes.size());
        std::fclose(out);
    }

    const auto decodeEverything = [&bad]() {
        TraceReplayWorkload replay(bad.path());
        Rng unused(1);
        for (unsigned i = 0; i < 200; ++i)
            replay.next(unused);
    };
    testutil::expectStatusError(decodeEverything,
                                "truncated varint|exceeds 64 bits");
}

/** ASAPTRC2 is the only container recordTrace writes; asking for any
 *  other version is a spec error, not a silent ASAPTRC2 file. */
TEST(TraceFormat, RecordingRejectsOtherVersions)
{
    RecordOptions options;
    options.version = 1;
    testutil::expectStatusError(
        [&] {
            recordTrace(smallSpec(), "trace_bad_version.asaptrace", 7,
                        200, options);
        },
        StatusCode::InvalidArgument, "unknown container version 1");
}

/** A legacy ASAPTRC1 file loads as one raw chunk and replays exactly
 *  like the recording it was written from: the same addresses through
 *  the wrap, and the same RunStats. */
TEST(TraceFormat, LegacyV1LoadsAsOneChunk)
{
    const TempTrace recorded("trace_legacy_rec.asaptrace");
    const TempTrace legacy("trace_legacy_v1.asaptrace");
    constexpr std::size_t count = 1'000;
    RecordOptions options;
    options.v2.chunkAccesses = 128;
    recordTrace(smallSpec(), recorded.path(), 7, count, options);
    testutil::writeLegacyTrace(recorded.path(), legacy.path());

    const TraceFile file(legacy.path());
    EXPECT_EQ(file.version(), 1u);
    ASSERT_EQ(file.chunks().size(), 1u);
    EXPECT_EQ(file.chunks()[0].accesses, count);
    EXPECT_EQ(file.header().accessCount, count);
    EXPECT_EQ(file.header().representedAccesses, count);
    EXPECT_EQ(file.header().chunkAccesses, 0u);
    EXPECT_GT(TraceFile(recorded.path()).chunks().size(), 1u);

    // 2.5 laps cross both wraps of the one-chunk stream.
    EXPECT_EQ(replayAddresses(legacy.path(), count * 5 / 2),
              replayAddresses(recorded.path(), count * 5 / 2));

    RunConfig run;
    run.warmupAccesses = 300;
    run.measureAccesses = 2'000;
    run.seed = 7;
    const EnvironmentOptions env;
    const MachineConfig machine;
    golden::expectSameStats(
        runFresh(traceSpec(recorded.path()), env, machine, run),
        runFresh(traceSpec(legacy.path()), env, machine, run),
        "v2 vs legacy");
}

TEST(TraceReplay, StreamMatchesGenerator)
{
    const TempTrace trace("trace_stream_match.asaptrace");
    const WorkloadSpec spec = smallSpec();
    constexpr std::size_t count = 3'000;
    constexpr std::uint64_t seed = 99;
    recordTrace(spec, trace.path(), seed, count);

    // Live generator stream, drawn exactly as the recorder drew it.
    System system(makeSystemConfig(spec, EnvironmentOptions{}));
    SyntheticWorkload generator(spec);
    generator.setup(system);
    Rng rng(seed);
    generator.reset(rng);
    std::vector<VirtAddr> live(count);
    for (std::size_t i = 0; i < count; ++i)
        live[i] = generator.next(rng);

    EXPECT_EQ(replayAddresses(trace.path(), count), live);
}

TEST(TraceReplay, SetupReproducesVmaLayout)
{
    const TempTrace trace("trace_vma_layout.asaptrace");
    const WorkloadSpec spec = smallSpec();
    recordTrace(spec, trace.path(), 7, 200);

    System liveSystem(makeSystemConfig(spec, EnvironmentOptions{}));
    SyntheticWorkload generator(spec);
    generator.setup(liveSystem);

    System replaySystem(makeSystemConfig(spec, EnvironmentOptions{}));
    TraceReplayWorkload replay(trace.path());
    replay.setup(replaySystem);

    const auto liveVmas = liveSystem.appSpace().vmas().all();
    const auto replayVmas = replaySystem.appSpace().vmas().all();
    ASSERT_EQ(liveVmas.size(), replayVmas.size());
    for (std::size_t i = 0; i < liveVmas.size(); ++i) {
        EXPECT_EQ(liveVmas[i]->start, replayVmas[i]->start);
        EXPECT_EQ(liveVmas[i]->end, replayVmas[i]->end);
        EXPECT_EQ(liveVmas[i]->name, replayVmas[i]->name);
        EXPECT_EQ(liveVmas[i]->prefetchable, replayVmas[i]->prefetchable);
        EXPECT_EQ(liveVmas[i]->touchedPages, replayVmas[i]->touchedPages);
    }
    EXPECT_EQ(liveSystem.appPt().nodeCount(),
              replaySystem.appPt().nodeCount());
}

/** Batch sizes that do not divide the trace length must still yield the
 *  exact stream, wrapping around at the recorded end. */
TEST(TraceReplay, NextBatchBoundaryAndWrap)
{
    const TempTrace trace("trace_batch_boundary.asaptrace");
    constexpr std::size_t recorded = 1'000;
    recordTrace(smallSpec(), trace.path(), 7, recorded);

    const std::vector<VirtAddr> lap =
        replayAddresses(trace.path(), recorded);

    // 64 does not divide 1000; request 2.5 laps in uneven batches.
    TraceReplayWorkload replay(trace.path());
    Rng unused(1);
    replay.reset(unused);
    constexpr std::size_t total = 2'500;
    std::vector<VirtAddr> batched(total);
    std::size_t at = 0;
    // Batches of 64 wrap mid-batch at both recorded ends (1000, 2000);
    // the tail is drained one address at a time.
    while (at + 64 <= total) {
        replay.nextBatch(unused, batched.data() + at, 64);
        at += 64;
    }
    while (at < total)
        batched[at++] = replay.next(unused);

    for (std::size_t i = 0; i < total; ++i) {
        ASSERT_EQ(batched[i], lap[i % recorded])
            << "position " << i << " (lap offset " << i % recorded
            << ")";
    }

    // reset() rewinds to the stream start.
    replay.reset(unused);
    EXPECT_EQ(replay.next(unused), lap[0]);
}

/**
 * The headline acceptance property: for every workload of the standard
 * suite, record → replay reproduces the live-generator run's RunStats
 * bit-for-bit. Specs are scaled down (like every simulation test) so
 * the whole suite runs in seconds; the scaling preserves each
 * workload's structure (VMA counts, mixture, churn shape).
 */
TEST(TraceReplay, RoundTripAllSuiteWorkloads)
{
    RunConfig run;
    run.warmupAccesses = 2'000;
    run.measureAccesses = 8'000;
    run.seed = 7;

    for (const WorkloadSpec &full : standardSuite()) {
        SCOPED_TRACE(full.name);
        const WorkloadSpec spec = scaledDown(full, 64);
        const TempTrace trace("trace_roundtrip_" + full.name +
                              ".asaptrace");
        recordTrace(spec, trace.path(), run.seed,
                    run.warmupAccesses + run.measureAccesses);
        const WorkloadSpec replay = traceSpec(trace.path());

        const EnvironmentOptions options;
        const MachineConfig machine;
        const RunStats live = runFresh(spec, options, machine, run);
        const RunStats replayed = runFresh(replay, options, machine, run);
        golden::expectSameStats(live, replayed, "replay vs live");
        EXPECT_EQ(live.accesses, run.measureAccesses);
    }
}
