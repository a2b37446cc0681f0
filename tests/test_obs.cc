/**
 * @file
 * Unit tests for src/obs: histogram bucket math and percentiles,
 * merge associativity, trace-sink ring semantics and Chrome-JSON
 * export, counter-registry uniqueness — and the layer's core contract,
 * golden equivalence: attaching a recording trace sink must not
 * perturb the simulated model by a single cycle.
 */

#include <cstdint>
#include <memory>

#include <gtest/gtest.h>

#include "exp/json.hh"
#include "golden_scenarios.hh"
#include "obs/histogram.hh"
#include "obs/registry.hh"
#include "obs/trace_sink.hh"
#include "common/rng.hh"

using namespace asap;
using Hist = obs::Histogram;

TEST(ObsHistogram, LinearRangeIsExact)
{
    for (std::uint64_t v = 0; v < Hist::linearBuckets; ++v) {
        EXPECT_EQ(Hist::bucketOf(v), v);
        EXPECT_EQ(Hist::bucketLow(v), v);
        EXPECT_EQ(Hist::bucketHigh(v), v);
    }
}

TEST(ObsHistogram, BucketBoundariesRoundTrip)
{
    for (std::size_t i = 0; i < Hist::numBuckets; ++i) {
        EXPECT_EQ(Hist::bucketOf(Hist::bucketLow(i)), i) << i;
        EXPECT_EQ(Hist::bucketOf(Hist::bucketHigh(i)), i) << i;
        if (i + 1 < Hist::numBuckets) {
            // Buckets tile the integers: no gap, no overlap.
            EXPECT_EQ(Hist::bucketLow(i + 1),
                      Hist::bucketHigh(i) + 1)
                << i;
        }
    }
    // The last bucket reaches the top of the uint64 range.
    EXPECT_EQ(Hist::bucketHigh(Hist::numBuckets - 1),
              ~std::uint64_t{0});
    EXPECT_EQ(Hist::bucketOf(~std::uint64_t{0}),
              Hist::numBuckets - 1);
}

TEST(ObsHistogram, BucketWidthBoundsRelativeError)
{
    // Above the linear range each octave splits into subBuckets, so
    // the bucket holding v is never wider than v / subBuckets + 1.
    for (const std::uint64_t v :
         {16ull, 100ull, 12'345ull, 1ull << 32, (1ull << 40) + 7}) {
        const std::size_t i = Hist::bucketOf(v);
        EXPECT_LE(Hist::bucketLow(i), v);
        EXPECT_GE(Hist::bucketHigh(i), v);
        EXPECT_LE(Hist::bucketHigh(i) - Hist::bucketLow(i),
                  v / Hist::subBuckets + 1);
    }
}

TEST(ObsHistogram, PercentileEmptyAndSingleSample)
{
    Hist hist;
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.percentile(0.0), 0u);
    EXPECT_EQ(hist.percentile(0.5), 0u);
    EXPECT_EQ(hist.percentile(1.0), 0u);
    EXPECT_EQ(hist.mean(), 0.0);

    hist.sample(100);
    const std::uint64_t expect =
        Hist::bucketHigh(Hist::bucketOf(100));
    EXPECT_EQ(hist.count(), 1u);
    EXPECT_EQ(hist.sum(), 100u);
    EXPECT_EQ(hist.percentile(0.0), expect);
    EXPECT_EQ(hist.p50(), expect);
    EXPECT_EQ(hist.p999(), expect);
    EXPECT_EQ(hist.percentile(1.0), expect);
}

TEST(ObsHistogram, PercentileRankArithmetic)
{
    Hist hist;
    for (std::uint64_t v = 1; v <= 1000; ++v)
        hist.sample(v);
    // rank(q) = ceil(q * 1000): p50 lands on sample 500 exactly.
    EXPECT_EQ(hist.p50(),
              Hist::bucketHigh(Hist::bucketOf(500)));
    EXPECT_EQ(hist.p90(),
              Hist::bucketHigh(Hist::bucketOf(900)));
    EXPECT_EQ(hist.percentile(1.0),
              Hist::bucketHigh(Hist::bucketOf(1000)));
    // Monotone in q.
    EXPECT_LE(hist.p50(), hist.p90());
    EXPECT_LE(hist.p90(), hist.p99());
    EXPECT_LE(hist.p99(), hist.p999());
}

TEST(ObsHistogram, MergeIsAssociativeAndCommutative)
{
    Rng rng(42);
    Hist parts[3];
    for (unsigned p = 0; p < 3; ++p) {
        for (unsigned i = 0; i < 5'000; ++i)
            parts[p].sample(rng.next() >> rng.below(40));
    }

    Hist leftFold;             // (a + b) + c
    leftFold.merge(parts[0]);
    leftFold.merge(parts[1]);
    leftFold.merge(parts[2]);

    Hist rightFold;            // a + (b + c), built b+c first
    Hist bc = parts[1];
    bc.merge(parts[2]);
    rightFold.merge(bc);
    rightFold.merge(parts[0]);      // ... and commuted

    EXPECT_EQ(leftFold.count(), rightFold.count());
    EXPECT_EQ(leftFold.sum(), rightFold.sum());
    for (std::size_t i = 0; i < Hist::numBuckets; ++i)
        EXPECT_EQ(leftFold.bucketCount(i), rightFold.bucketCount(i));
    EXPECT_EQ(leftFold.p50(), rightFold.p50());
    EXPECT_EQ(leftFold.p999(), rightFold.p999());
}

TEST(TraceSink, RingOverwritesOldestAndCountsDrops)
{
    obs::TraceSink sink(4);
    for (std::uint64_t i = 0; i < 6; ++i)
        sink.fault(/*at=*/100 + i, /*va=*/0x1000 * i);
    EXPECT_EQ(sink.size(), 4u);
    EXPECT_EQ(sink.emitted(), 6u);
    EXPECT_EQ(sink.dropped(), 2u);
    // Chronological order: the two oldest events were overwritten.
    for (std::size_t i = 0; i < sink.size(); ++i)
        EXPECT_EQ(sink.at(i).start, 100u + 2 + i) << i;
    EXPECT_EQ(sink.countOf(obs::EventKind::Fault), 4u);

    sink.clear();
    EXPECT_EQ(sink.size(), 0u);
    EXPECT_EQ(sink.emitted(), 0u);
}

TEST(TraceSink, ChromeJsonParsesBack)
{
    obs::TraceSink sink(64);
    sink.walkSpan(10, 40, 0x7f0000001000, false,
                  obs::packWalkLevel(
                      obs::packWalkLevel(0, 4, /*Pwc=*/0), 1,
                      /*Dram=*/4));
    sink.nestedWalkSpan(60, 200, 0x7f0000002000, true, 24);
    sink.fault(60, 0x7f0000002000);
    sink.asapTrigger(obs::Track::AsapApp, 10, 0x7f0000001000, true);
    sink.asapIssue(obs::Track::AsapApp, 10, 2, 0x5000, true);
    sink.prefetchFill(12, 212, 0x5000);
    sink.prefetchMerge(100, 0x5000, 30);
    sink.osEvent(300, /*Munmap=*/1, 0x7f0000002000, 16);
    sink.shootdown(300, 5, 3);

    const auto doc = exp::Json::parse(sink.chromeJson());
    ASSERT_TRUE(doc.has_value());
    const exp::Json *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    // All nine events plus one thread_name metadata entry per track.
    EXPECT_EQ(events->items().size(),
              9u + static_cast<std::size_t>(obs::Track::NumTracks));
    unsigned spans = 0, instants = 0, meta = 0;
    for (const exp::Json &event : events->items()) {
        const exp::Json *ph = event.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->asString() == "X")
            ++spans;
        else if (ph->asString() == "i")
            ++instants;
        else if (ph->asString() == "M")
            ++meta;
        const exp::Json *ts = event.find("ts");
        if (ph->asString() != "M")
            ASSERT_NE(ts, nullptr);
    }
    EXPECT_EQ(spans, 3u);      // walk, nested walk, prefetch fill
    EXPECT_EQ(instants, 6u);
    EXPECT_EQ(meta, static_cast<unsigned>(obs::Track::NumTracks));
    const exp::Json *other = doc->find("otherData");
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->find("emitted")->asNumber(), 9.0);
    EXPECT_EQ(other->find("dropped")->asNumber(), 0.0);
}

TEST(Registry, SnapshotKeepsRegistrationOrder)
{
    obs::Registry registry;
    registry.add("b.second", 2);
    registry.add("a.first", 1);
    const obs::Counters &snapshot = registry.snapshot();
    ASSERT_EQ(snapshot.size(), 2u);
    EXPECT_EQ(snapshot[0].first, "b.second");
    EXPECT_EQ(snapshot[0].second, 2u);
    EXPECT_EQ(snapshot[1].first, "a.first");
    EXPECT_EQ(snapshot[1].second, 1u);
}

TEST(Registry, DuplicateNamePanics)
{
    obs::Registry registry;
    registry.add("tlb.lookups", 1);
    EXPECT_DEATH(registry.add("tlb.lookups", 2), "duplicate counter");
}

/** addCounters sums lists position by position; lists of different
 *  length, or with one differing name, come from different
 *  configurations and panic instead of summing unrelated columns. */
TEST(Registry, AddCountersMergesPositionallyAndPanicsOnMismatch)
{
    obs::Counters sum;
    obs::addCounters(sum, {{"a", 1}, {"b", 2}});
    obs::addCounters(sum, {{"a", 10}, {"b", 20}});
    EXPECT_EQ(sum, (obs::Counters{{"a", 11}, {"b", 22}}));

    EXPECT_DEATH(obs::addCounters(sum, {{"a", 1}}),
                 "counter lists differ \\(2 vs 1\\)");
    EXPECT_DEATH(obs::addCounters(sum, {{"a", 1}, {"c", 2}}),
                 "counter 1 name mismatch \\(b vs c\\)");
}

namespace
{

/** golden::runScenario with a trace sink attached to the machine. */
RunStats
runScenarioWithSink(const golden::Scenario &scenario,
                    obs::TraceSink &sink)
{
    const WorkloadSpec spec = golden::goldenSpec();
    System system(makeSystemConfig(spec, scenario.env));
    const std::unique_ptr<Workload> workload = makeWorkload(spec);
    workload->setup(system);
    Machine machine(system, scenario.machine);
    machine.attachTraceSink(&sink);
    Simulator simulator(system, machine, *workload);
    return simulator.run(golden::goldenRunConfig(scenario.colocation));
}

void
expectEqual(const golden::Expect &a, const golden::Expect &b,
            const std::string &what)
{
    EXPECT_EQ(a.tlbL1Hits, b.tlbL1Hits) << what;
    EXPECT_EQ(a.tlbL2Hits, b.tlbL2Hits) << what;
    EXPECT_EQ(a.tlbMisses, b.tlbMisses) << what;
    EXPECT_EQ(a.faults, b.faults) << what;
    EXPECT_EQ(a.walkCount, b.walkCount) << what;
    EXPECT_EQ(a.walkSum, b.walkSum) << what;
    EXPECT_EQ(a.walkMin, b.walkMin) << what;
    EXPECT_EQ(a.walkMax, b.walkMax) << what;
    EXPECT_EQ(a.totalCycles, b.totalCycles) << what;
    EXPECT_EQ(a.walkCycles, b.walkCycles) << what;
    EXPECT_EQ(a.dataCycles, b.dataCycles) << what;
    EXPECT_EQ(a.computeCycles, b.computeCycles) << what;
    for (unsigned i = 0; i < 5; ++i) {
        EXPECT_EQ(a.levelTotal[i], b.levelTotal[i]) << what << " PL"
                                                    << i + 1;
        EXPECT_EQ(a.levelPwc[i], b.levelPwc[i]) << what;
        EXPECT_EQ(a.levelDram[i], b.levelDram[i]) << what;
    }
    EXPECT_EQ(a.appTriggers, b.appTriggers) << what;
    EXPECT_EQ(a.appRangeHits, b.appRangeHits) << what;
    EXPECT_EQ(a.appAttempted, b.appAttempted) << what;
    EXPECT_EQ(a.appIssued, b.appIssued) << what;
    EXPECT_EQ(a.hostIssued, b.hostIssued) << what;
}

} // namespace

/**
 * The observability invariant: the six pinned golden scenarios produce
 * bit-identical RunStats with a sink attached and recording —
 * observation must never perturb the model. (The pinned literals
 * themselves live in tests/test_sim.cc.)
 */
TEST(GoldenEquivalence, SinkAttachedAndRecording)
{
    for (const golden::Scenario &scenario : golden::goldenScenarios()) {
        const golden::Expect baseline =
            golden::flatten(golden::runScenario(scenario));

        obs::TraceSink active(1u << 16);
        const RunStats traced = runScenarioWithSink(scenario, active);
        expectEqual(baseline, golden::flatten(traced),
                    scenario.name + "/recording");
        // The run TLB-misses, so the sink must have seen walks.
        EXPECT_GT(active.emitted(), 0u) << scenario.name;
        const bool nested = scenario.env.virtualized;
        EXPECT_GT(active.countOf(nested
                                     ? obs::EventKind::NestedWalkSpan
                                     : obs::EventKind::WalkSpan),
                  0u)
            << scenario.name;

        // The walk histogram mirrors the pinned SampleStat exactly.
        EXPECT_EQ(traced.walkHist.count(), traced.walkLatency.count())
            << scenario.name;
        EXPECT_EQ(traced.walkHist.sum(), traced.walkLatency.sum())
            << scenario.name;
        EXPECT_GE(traced.walkHist.percentile(1.0),
                  traced.walkLatency.max())
            << scenario.name;
    }
}
