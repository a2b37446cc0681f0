/**
 * @file
 * obs::Timeline: epoch boundary arithmetic, the delta-sum == lifetime
 * identity, histogram diffing, golden bit-identity with a timeline
 * attached (generated and replayed), artifact invariance
 * across ASAP_JOBS / ASAP_TIMELINE, Perfetto counter-track parse-back,
 * and the recoverable "timeline-write" fault path.
 *
 * The contract under test: a Timeline observes a run without
 * perturbing it (the epoch-chunked measure phase replays the identical
 * access stream), its per-epoch counter deltas sum exactly to the
 * lifetime counter snapshot, and a failed timeline artifact write is a
 * recoverable Status — never a dead run or a failed sweep cell.
 */

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_inject.hh"
#include "exp/json.hh"
#include "exp/sweep.hh"
#include "obs/histogram.hh"
#include "obs/timeline.hh"
#include "obs/trace_sink.hh"
#include "sim/environment.hh"
#include "workloads/trace.hh"

#include "golden_scenarios.hh"

namespace asap
{
namespace
{

using exp::CellResult;
using exp::ResultSet;
using exp::SweepRunner;
using exp::SweepSpec;

/** runScenario with a timeline attached (and the run config's measure
 *  total optionally overridden for boundary-math cases). */
RunStats
runScenarioWithTimeline(const golden::Scenario &scenario,
                        obs::Timeline &timeline,
                        std::uint64_t measureAccesses = 0)
{
    const WorkloadSpec spec = golden::goldenSpec();
    System system(makeSystemConfig(spec, scenario.env));
    const std::unique_ptr<Workload> workload = makeWorkload(spec);
    workload->setup(system);
    Machine machine(system, scenario.machine);
    Simulator simulator(system, machine, *workload);
    simulator.attachTimeline(&timeline);
    RunConfig run = golden::goldenRunConfig(scenario.colocation);
    if (measureAccesses != 0)
        run.measureAccesses = measureAccesses;
    return simulator.run(run);
}

/** golden::Expect is all uint64_t (no padding surprises): bitwise
 *  equality is the whole point of the golden suite. */
void
expectGoldenEq(const golden::Expect &a, const golden::Expect &b,
               const std::string &what)
{
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(golden::Expect)), 0) << what;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Scoped env var (NAME=value, unset on destruction). */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        setenv(name, value, 1);
    }
    ~EnvGuard() { unsetenv(name_); }

  private:
    const char *name_;
};

class FaultGuard
{
  public:
    explicit FaultGuard(const char *spec) { fault::reconfigure(spec); }
    ~FaultGuard() { fault::reconfigure(nullptr); }
};

// ---------------------------------------------------------------------------
// Epoch boundary arithmetic
// ---------------------------------------------------------------------------

/** Epoch length that does not divide the measure total: the last epoch
 *  is partial, boundaries are contiguous, cycles are monotonic. */
TEST(Timeline, EpochBoundariesWithPartialFinalEpoch)
{
    const golden::Scenario scenario = golden::goldenScenarios()[1];
    ASSERT_EQ(scenario.name, "native_asap");
    constexpr std::uint64_t measure = 16'000;
    constexpr std::uint64_t epochLen = 4'500;   // 16000 = 3*4500 + 2500

    obs::Timeline timeline(epochLen);
    runScenarioWithTimeline(scenario, timeline, measure);

    ASSERT_EQ(timeline.epochCount(), 4u);
    std::uint64_t expectStart = 0;
    for (std::size_t i = 0; i < timeline.epochCount(); ++i) {
        const obs::TimelineEpoch &epoch = timeline.epoch(i);
        EXPECT_EQ(epoch.index, i);
        EXPECT_EQ(epoch.startAccess, expectStart);
        const std::uint64_t expectEnd =
            i + 1 < timeline.epochCount() ? expectStart + epochLen
                                          : measure;
        EXPECT_EQ(epoch.endAccess, expectEnd);
        EXPECT_LE(epoch.startCycle, epoch.endCycle);
        if (i > 0)
            EXPECT_EQ(epoch.startCycle,
                      timeline.epoch(i - 1).endCycle);
        expectStart = expectEnd;
    }
    // The partial final epoch covers exactly the 2500-access remainder.
    EXPECT_EQ(timeline.epoch(3).endAccess - timeline.epoch(3).startAccess,
              2'500u);
}

/** Epoch length dividing the measure total exactly: no extra
 *  zero-length epoch is appended (the final boundary IS the end-of-run
 *  sample). */
TEST(Timeline, ExactDivisionProducesNoEmptyEpoch)
{
    const golden::Scenario scenario = golden::goldenScenarios()[0];
    obs::Timeline timeline(4'000);
    runScenarioWithTimeline(scenario, timeline, 16'000);

    ASSERT_EQ(timeline.epochCount(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(timeline.epoch(i).endAccess -
                      timeline.epoch(i).startAccess,
                  4'000u);
    }
    EXPECT_EQ(timeline.epoch(3).endAccess, 16'000u);
}

// ---------------------------------------------------------------------------
// Delta-sum identity
// ---------------------------------------------------------------------------

/** Per-epoch counter deltas (wrapping u64) must sum to the lifetime
 *  counter snapshot bit-exactly, for every scenario — including the
 *  non-monotonic counters (buddy.freeFrames) and constants. */
TEST(Timeline, DeltaSumEqualsLifetimeCounters)
{
    for (const golden::Scenario &scenario : golden::goldenScenarios()) {
        SCOPED_TRACE(scenario.name);
        obs::Timeline timeline(3'000);
        const RunStats stats =
            runScenarioWithTimeline(scenario, timeline);

        ASSERT_GT(timeline.epochCount(), 1u);
        const std::vector<std::string> &names = timeline.counterNames();
        ASSERT_EQ(names.size(), stats.counters.size());
        for (std::size_t c = 0; c < names.size(); ++c) {
            ASSERT_EQ(names[c], stats.counters[c].first);
            std::uint64_t sum = 0;
            for (std::size_t e = 0; e < timeline.epochCount(); ++e)
                sum += timeline.epoch(e).counterDeltas[c];
            EXPECT_EQ(sum, stats.counters[c].second) << names[c];
            EXPECT_EQ(timeline.lastCounters()[c],
                      stats.counters[c].second)
                << names[c];
        }
    }
}

// ---------------------------------------------------------------------------
// Histogram diffing
// ---------------------------------------------------------------------------

/** cur - prev over cumulative snapshots of one stream is exactly the
 *  interval's own distribution. */
TEST(Timeline, HistogramDiffRecoversInterval)
{
    obs::Histogram prev;
    for (std::uint64_t v : {4u, 4u, 9u, 130u, 2'000u})
        prev.sample(v);

    obs::Histogram cur = prev;
    obs::Histogram interval;
    for (std::uint64_t v : {7u, 7u, 7u, 55u, 90'000u, 90'001u}) {
        cur.sample(v);
        interval.sample(v);
    }

    const obs::Histogram diff = obs::histogramDiff(cur, prev);
    EXPECT_EQ(diff.count(), interval.count());
    EXPECT_EQ(diff.sum(), interval.sum());
    for (std::size_t i = 0; i < obs::Histogram::numBuckets; ++i)
        EXPECT_EQ(diff.bucketCount(i), interval.bucketCount(i));
    EXPECT_EQ(diff.p50(), interval.p50());
    EXPECT_EQ(diff.p99(), interval.p99());

    // Diff against an empty baseline is the identity.
    const obs::Histogram same = obs::histogramDiff(cur, obs::Histogram());
    EXPECT_EQ(same.count(), cur.count());
    EXPECT_EQ(same.p90(), cur.p90());
}

// ---------------------------------------------------------------------------
// Golden bit-identity
// ---------------------------------------------------------------------------

/** A run with a timeline attached must be bit-identical to the plain
 *  run, across all six pinned scenarios — observation never
 *  perturbs the model. */
TEST(GoldenEquivalence, TimelineAttachedAndEnabled)
{
    for (const golden::Scenario &scenario : golden::goldenScenarios()) {
        SCOPED_TRACE(scenario.name);
        const RunStats baseline = golden::runScenario(scenario);

        obs::Timeline timeline(2'048);   // does not divide 16000
        const RunStats timed =
            runScenarioWithTimeline(scenario, timeline);

        expectGoldenEq(golden::flatten(baseline),
                       golden::flatten(timed), scenario.name);
        // The registered counter snapshot too, name for name.
        ASSERT_EQ(timed.counters.size(), baseline.counters.size());
        for (std::size_t i = 0; i < timed.counters.size(); ++i) {
            EXPECT_EQ(timed.counters[i].first,
                      baseline.counters[i].first);
            EXPECT_EQ(timed.counters[i].second,
                      baseline.counters[i].second)
                << baseline.counters[i].first;
        }
        EXPECT_GT(timeline.epochCount(), 0u);
    }
}

/** The epoch-chunked measure phase must also be invisible on a trace
 *  replay: the recorded stream run with a timeline attached equals the
 *  plain serial replay. */
TEST(GoldenEquivalence, TraceReplayTimelineMatchesSerial)
{
    const std::string path = "timeline_replay_golden.trc";
    const RunConfig run = golden::goldenRunConfig(false);
    recordTrace(golden::goldenSpec(), path, run.seed,
                run.warmupAccesses + run.measureAccesses);
    const WorkloadSpec spec = traceSpec(path);
    const golden::Scenario scenario = golden::goldenScenarios()[1];
    ASSERT_EQ(scenario.name, "native_asap");

    Environment plain(spec, scenario.env);
    const RunStats serial = plain.run(scenario.machine, run);

    Environment timed(spec, scenario.env);
    obs::Timeline timeline(3'777);
    const RunStats withTimeline =
        timed.run(scenario.machine, run, nullptr, &timeline);

    expectGoldenEq(golden::flatten(serial),
                   golden::flatten(withTimeline), "serial vs timeline");
    EXPECT_GT(timeline.epochCount(), 1u);
}

// ---------------------------------------------------------------------------
// Sweep artifact invariance (ASAP_TIMELINE / ASAP_JOBS)
// ---------------------------------------------------------------------------

SweepSpec
tinySweep(const char *name)
{
    SweepSpec sweep(name);
    const RunConfig run = golden::goldenRunConfig(false);
    for (const char *column : {"Baseline", "P1+P2"}) {
        EnvironmentOptions env;
        env.asapPlacement = std::strcmp(column, "Baseline") != 0;
        sweep.add(golden::goldenSpec(), env,
                  env.asapPlacement
                      ? makeMachineConfig(AsapConfig::p1p2())
                      : makeMachineConfig(),
                  run, "golden", column);
    }
    return sweep;
}

/** Per-cell timelines are extra artifacts: the deterministic cells
 *  CSV/JSON must be byte-identical with the gate off, on, and across
 *  worker-thread counts — and the timeline files themselves must be
 *  byte-identical across ASAP_JOBS. */
TEST(Timeline, SweepArtifactsInvariantAcrossJobsAndGate)
{
    namespace fs = std::filesystem;
    const std::string dir = "timeline_test_results";
    fs::remove_all(dir);
    EnvGuard resultsDir("ASAP_RESULTS_DIR", dir.c_str());

    const std::string off = [&] {
        const ResultSet results =
            SweepRunner(1).run(tinySweep("timeline_sweep"));
        return results.toCsv() + results.toJson().dump(2);
    }();

    std::string on1, artifacts1;
    const std::vector<std::string> artifactNames = {
        dir + "/timeline_sweep_timeline_golden_Baseline.jsonl",
        dir + "/timeline_sweep_timeline_golden_P1-P2.jsonl"};
    {
        EnvGuard gate("ASAP_TIMELINE", "2000");
        const ResultSet results =
            SweepRunner(1).run(tinySweep("timeline_sweep"));
        on1 = results.toCsv() + results.toJson().dump(2);
        for (const std::string &artifact : artifactNames) {
            ASSERT_TRUE(fs::exists(artifact)) << artifact;
            artifacts1 += readFile(artifact);
        }
    }
    std::string on4, artifacts4;
    {
        EnvGuard gate("ASAP_TIMELINE", "2000");
        const ResultSet results =
            SweepRunner(4).run(tinySweep("timeline_sweep"));
        on4 = results.toCsv() + results.toJson().dump(2);
        for (const std::string &artifact : artifactNames)
            artifacts4 += readFile(artifact);
    }

    EXPECT_EQ(off, on1);
    EXPECT_EQ(on1, on4);
    EXPECT_FALSE(artifacts1.empty());
    EXPECT_EQ(artifacts1, artifacts4);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Perfetto counter tracks
// ---------------------------------------------------------------------------

/** The merged Chrome trace must stay valid JSON, with ph:"C" counter
 *  events carrying numeric args.value on the span timebase. */
TEST(Timeline, ChromeCounterTracksParseBack)
{
    const golden::Scenario scenario = golden::goldenScenarios()[1];
    const WorkloadSpec spec = golden::goldenSpec();
    System system(makeSystemConfig(spec, scenario.env));
    const std::unique_ptr<Workload> workload = makeWorkload(spec);
    workload->setup(system);
    Machine machine(system, scenario.machine);
    obs::TraceSink sink(1u << 16);
    machine.attachTraceSink(&sink);
    Simulator simulator(system, machine, *workload);
    obs::Timeline timeline(4'000);
    simulator.attachTimeline(&timeline);
    simulator.run(golden::goldenRunConfig(scenario.colocation));

    const auto doc =
        exp::Json::parse(sink.chromeJson(timeline.chromeCounterEvents()));
    ASSERT_TRUE(doc.has_value());
    const exp::Json *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);

    std::size_t counterEvents = 0;
    bool sawWalkP99 = false, sawGauge = false, sawDelta = false;
    for (const exp::Json &event : events->items()) {
        const exp::Json *ph = event.find("ph");
        if (!ph || ph->asString() != "C")
            continue;
        ++counterEvents;
        const exp::Json *name = event.find("name");
        ASSERT_NE(name, nullptr);
        sawWalkP99 = sawWalkP99 ||
                     name->asString() == "interval:walkP99";
        sawGauge = sawGauge ||
                   name->asString().rfind("g:", 0) == 0;
        sawDelta = sawDelta ||
                   name->asString().rfind("d:", 0) == 0;
        const exp::Json *args = event.find("args");
        ASSERT_NE(args, nullptr);
        const exp::Json *value = args->find("value");
        ASSERT_NE(value, nullptr);
        EXPECT_EQ(value->type(), exp::Json::Type::Number);
    }
    EXPECT_GT(counterEvents, 0u);
    EXPECT_TRUE(sawWalkP99);
    EXPECT_TRUE(sawGauge);
    EXPECT_TRUE(sawDelta);

    // Without extras the document still parses and has no counter rows.
    const auto bare = exp::Json::parse(sink.chromeJson());
    ASSERT_TRUE(bare.has_value());
    for (const exp::Json &event : bare->find("traceEvents")->items()) {
        const exp::Json *ph = event.find("ph");
        EXPECT_TRUE(!ph || ph->asString() != "C");
    }
}

// ---------------------------------------------------------------------------
// Recoverable write faults and artifact shape
// ---------------------------------------------------------------------------

/** An injected timeline-write failure surfaces as a transient Status;
 *  the in-memory epochs (and the run's stats) survive, and the next
 *  attempt succeeds and parses back line by line. */
TEST(Timeline, WriteFaultIsRecoverable)
{
    const golden::Scenario scenario = golden::goldenScenarios()[0];
    obs::Timeline timeline(4'000);
    const RunStats stats = runScenarioWithTimeline(scenario, timeline);
    const std::size_t epochs = timeline.epochCount();
    ASSERT_GT(epochs, 0u);

    const std::string path = "timeline_fault_test.jsonl";
    {
        FaultGuard fault("timeline-write:1");
        const Status status = timeline.writeJsonl(path);
        ASSERT_FALSE(status.ok());
        EXPECT_EQ(status.code(), StatusCode::Unavailable);
        EXPECT_TRUE(status.transient());
    }
    // Nothing was lost: epochs intact, the run's stats untouched, and
    // a retry succeeds.
    EXPECT_EQ(timeline.epochCount(), epochs);
    EXPECT_GT(stats.accesses, 0u);
    ASSERT_TRUE(timeline.writeJsonl(path).ok());

    std::ifstream in(path);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        const auto parsed = exp::Json::parse(line);
        ASSERT_TRUE(parsed.has_value()) << line;
        if (lines == 0) {
            const exp::Json *counters = parsed->find("counters");
            ASSERT_NE(counters, nullptr);
            EXPECT_EQ(counters->items().size(),
                      timeline.counterNames().size());
        }
        ++lines;
    }
    EXPECT_EQ(lines, 1 + epochs);   // header + one line per epoch
    std::filesystem::remove(path);
}

/** A timeline-write fault inside a sweep must not fail the cell: the
 *  artifact write is best-effort, the measured stats are kept. */
TEST(Timeline, SweepCellSurvivesTimelineWriteFault)
{
    namespace fs = std::filesystem;
    const std::string dir = "timeline_fault_results";
    fs::remove_all(dir);
    EnvGuard resultsDir("ASAP_RESULTS_DIR", dir.c_str());
    EnvGuard gate("ASAP_TIMELINE", "2000");
    FaultGuard fault("timeline-write:1");

    const ResultSet results =
        SweepRunner(1).run(tinySweep("timeline_fault_sweep"));
    for (const CellResult &cell : results.cells()) {
        EXPECT_TRUE(cell.status.ok()) << cell.column;
        EXPECT_TRUE(cell.measured) << cell.column;
        EXPECT_GT(cell.stats.accesses, 0u) << cell.column;
        EXPECT_EQ(cell.attempts, 1u) << cell.column;
    }
    fs::remove_all(dir);
}

} // namespace
} // namespace asap
