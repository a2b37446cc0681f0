/**
 * @file
 * Tests for the experiment-orchestration subsystem (src/exp): JSON
 * model, ResultTable emission, sweep determinism across thread counts
 * and the ASAP_JOBS fallback, per-cell seed derivation, and the
 * AsapEngine counters surfaced through RunStats.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "golden_scenarios.hh"
#include "core/asap_engine.hh"
#include "exp/json.hh"
#include "exp/result_table.hh"
#include "exp/sweep.hh"
#include "workloads/suite.hh"

using namespace asap;
using namespace asap::exp;

namespace
{

/** A tiny, fast workload for sweep tests. */
WorkloadSpec
tinySpec()
{
    WorkloadSpec spec = scaledDown(mcfSpec(), 16);
    spec.name = "tiny";
    return spec;
}

RunConfig
tinyRun(bool colocation = false)
{
    RunConfig run = defaultRunConfig(colocation);
    run.warmupAccesses = 2'000;
    run.measureAccesses = 10'000;
    return run;
}

} // namespace

// ---------------------------------------------------------------------------
// Json
// ---------------------------------------------------------------------------

TEST(Json, DumpParseRoundTrip)
{
    Json doc = Json::object();
    doc.set("title", "fig\"3\"");
    doc.set("enabled", true);
    doc.set("nothing", Json());
    Json values = Json::array();
    values.push(1.5);
    values.push(-3.0);
    values.push(0.1);
    values.push(123456789.0);
    doc.set("values", std::move(values));

    for (const int indent : {0, 2}) {
        const auto parsed = Json::parse(doc.dump(indent));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(parsed->find("title")->asString(), "fig\"3\"");
        EXPECT_TRUE(parsed->find("enabled")->asBool());
        EXPECT_EQ(parsed->find("nothing")->type(), Json::Type::Null);
        const auto &items = parsed->find("values")->items();
        ASSERT_EQ(items.size(), 4u);
        EXPECT_DOUBLE_EQ(items[0].asNumber(), 1.5);
        EXPECT_DOUBLE_EQ(items[1].asNumber(), -3.0);
        EXPECT_DOUBLE_EQ(items[2].asNumber(), 0.1);
        EXPECT_DOUBLE_EQ(items[3].asNumber(), 123456789.0);
    }
}

TEST(Json, NumberToStringRoundTripsExactly)
{
    for (const double v : {0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 1e-300,
                           176.22257720979766, 6.02214076e23}) {
        const std::string s = Json::numberToString(v);
        EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
    }
}

TEST(Json, NumberToStringIsShortest)
{
    EXPECT_EQ(Json::numberToString(0.1), "0.1");
    EXPECT_EQ(Json::numberToString(5.0), "5");
    EXPECT_EQ(Json::numberToString(-2.5), "-2.5");
}

TEST(Json, RejectsMalformedInput)
{
    EXPECT_FALSE(Json::parse("{").has_value());
    EXPECT_FALSE(Json::parse("[1,]").has_value());
    EXPECT_FALSE(Json::parse("{\"a\":1} trailing").has_value());
    EXPECT_FALSE(Json::parse("nope").has_value());
    EXPECT_FALSE(Json::parse("\"\\u12yz\"").has_value());
    EXPECT_FALSE(Json::parse("\"\\q\"").has_value());
    // Numbers outside JSON's grammar, most of which strtod takes;
    // 1e400 is valid syntax but overflows a double.
    for (const char *text : {"inf", "-inf", "NaN", "nan", "1e400", "0x10",
                             "+3", ".5", "5.", "01", "-", "1e", "1e+",
                             "- 1", "infinity"}) {
        EXPECT_FALSE(Json::parse(text).has_value()) << text;
        EXPECT_FALSE(
            Json::parse(std::string("[") + text + "]").has_value())
            << text;
    }
}

TEST(Json, ParsesEveryJsonNumberForm)
{
    for (const char *text : {"0", "-0", "7", "-12", "3.25", "1e3", "1E+3",
                             "2.5e-3", "-0.0e0", "6.02214076e+23"}) {
        const auto parsed = Json::parse(text);
        ASSERT_TRUE(parsed.has_value()) << text;
        EXPECT_EQ(parsed->asNumber(), std::strtod(text, nullptr)) << text;
    }
}

TEST(Json, ParsesUnicodeEscapes)
{
    const auto parsed = Json::parse("\"\\u0041\\u000a\"");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->asString(), "A\n");
}

// ---------------------------------------------------------------------------
// ResultTable
// ---------------------------------------------------------------------------

namespace
{

ResultTable
sampleTable()
{
    ResultTable table("Figure X: things", {"native", "virt"}, "%10.2f");
    table.addRow("mcf", {176.25, 375.5});
    table.addRow("redis", {71.0, 168.75});
    table.addAverageRow();
    return table;
}

} // namespace

TEST(ResultTable, TextLayoutMatchesLegacyPrintTable)
{
    const std::string text = sampleTable().toText();
    EXPECT_EQ(text,
              "\n=== Figure X: things ===\n"
              "                native        virt\n"
              "mcf             176.25      375.50\n"
              "redis            71.00      168.75\n"
              "Average         123.62      272.12\n");
}

TEST(ResultTable, AverageRowAveragesColumns)
{
    const ResultTable table = sampleTable();
    const auto &avg = table.rows().back();
    EXPECT_EQ(avg.first, "Average");
    EXPECT_DOUBLE_EQ(avg.second[0], (176.25 + 71.0) / 2.0);
    EXPECT_DOUBLE_EQ(avg.second[1], (375.5 + 168.75) / 2.0);
}

TEST(ResultTable, CsvLayout)
{
    EXPECT_EQ(sampleTable().toCsv(),
              "# Figure X: things\n"
              "# format: %10.2f\n"
              "row,native,virt\n"
              "mcf,176.25,375.5\n"
              "redis,71,168.75\n"
              "Average,123.625,272.125\n");
}

TEST(ResultTable, JsonLayout)
{
    EXPECT_EQ(sampleTable().toJson().dump(),
              "{\"title\":\"Figure X: things\",\"format\":\"%10.2f\","
              "\"columns\":[\"native\",\"virt\"],\"rows\":["
              "{\"name\":\"mcf\",\"values\":[176.25,375.5]},"
              "{\"name\":\"redis\",\"values\":[71,168.75]},"
              "{\"name\":\"Average\",\"values\":[123.625,272.125]}]}");
}

// ---------------------------------------------------------------------------
// Sweep
// ---------------------------------------------------------------------------

namespace
{

SweepSpec
tinySweep(std::uint64_t baseSeed = 0)
{
    SweepSpec sweep("test_sweep", baseSeed);
    const WorkloadSpec spec = tinySpec();
    EnvironmentOptions native;
    EnvironmentOptions asapOptions;
    asapOptions.asapPlacement = true;
    sweep.add(spec, native, makeMachineConfig(), tinyRun(), "tiny",
              "base");
    sweep.add(spec, native, makeMachineConfig(), tinyRun(true), "tiny",
              "coloc");
    sweep.add(spec, asapOptions, makeMachineConfig(AsapConfig::p1p2()),
              tinyRun(), "tiny", "asap");
    sweep.addProbe(spec, native, "tiny", "probe",
                   [](Environment &env, CellResult &result) {
        result.extra["vmas"] = static_cast<double>(
            env.system().appSpace().vmas().size());
    });
    return sweep;
}

} // namespace

TEST(Sweep, ThreadCountInvariance)
{
    const ResultSet serial = SweepRunner(1).run(tinySweep());
    const ResultSet parallel = SweepRunner(4).run(tinySweep());
    ASSERT_EQ(serial.cells().size(), parallel.cells().size());
    for (std::size_t i = 0; i < serial.cells().size(); ++i) {
        const CellResult &a = serial.cells()[i];
        const CellResult &b = parallel.cells()[i];
        EXPECT_EQ(a.row, b.row);
        EXPECT_EQ(a.column, b.column);
        EXPECT_EQ(a.measured, b.measured);
        golden::expectSameStats(a.stats, b.stats, a.row + "/" + a.column);
        EXPECT_EQ(a.extra, b.extra);
    }
    // And the emitted artifacts agree byte-for-byte.
    EXPECT_EQ(serial.toCsv(), parallel.toCsv());
    EXPECT_EQ(serial.toJson().dump(2), parallel.toJson().dump(2));
}

TEST(Sweep, JobsFallBackWhenAsapJobsIsUnsetZeroOrJunk)
{
    // SweepRunner(0) reads ASAP_JOBS; anything but a positive integer
    // falls back to the hardware concurrency, never to zero workers.
    const std::string serial = SweepRunner(1).run(tinySweep()).toCsv();
    const char *old = std::getenv("ASAP_JOBS");
    const std::optional<std::string> saved =
        old ? std::optional<std::string>(old) : std::nullopt;
    for (const char *value : {static_cast<const char *>(nullptr), "0",
                              "four", "2x", "-3"}) {
        if (value)
            ::setenv("ASAP_JOBS", value, 1);
        else
            ::unsetenv("ASAP_JOBS");
        const ResultSet results = SweepRunner(0).run(tinySweep());
        for (const CellResult &cell : results.cells())
            EXPECT_EQ(cell.attempts, 1u) << (value ? value : "unset");
        EXPECT_EQ(results.toCsv(), serial) << (value ? value : "unset");
    }
    if (saved)
        ::setenv("ASAP_JOBS", saved->c_str(), 1);
    else
        ::unsetenv("ASAP_JOBS");
}

TEST(Sweep, RepeatedRunsAreDeterministic)
{
    const ResultSet first = SweepRunner(2).run(tinySweep(42));
    const ResultSet second = SweepRunner(2).run(tinySweep(42));
    EXPECT_EQ(first.toCsv(), second.toCsv());
}

TEST(Sweep, BaseSeedDecorrelatesIdenticalCells)
{
    // Two cells with identical configs: with a base seed they receive
    // distinct derived seeds (different walk totals with very high
    // probability); without one they stay bit-identical.
    const WorkloadSpec spec = tinySpec();
    EnvironmentOptions native;

    SweepSpec seeded("seeded", 1234);
    seeded.add(spec, native, makeMachineConfig(), tinyRun(), "a", "x");
    seeded.add(spec, native, makeMachineConfig(), tinyRun(), "b", "x");
    const ResultSet seededResults = SweepRunner(1).run(seeded);
    EXPECT_NE(seededResults.stats("a", "x").walkLatency.sum(),
              seededResults.stats("b", "x").walkLatency.sum());

    SweepSpec plain("plain");
    plain.add(spec, native, makeMachineConfig(), tinyRun(), "a", "x");
    plain.add(spec, native, makeMachineConfig(), tinyRun(), "b", "x");
    const ResultSet plainResults = SweepRunner(1).run(plain);
    golden::expectSameStats(plainResults.stats("a", "x"),
                            plainResults.stats("b", "x"), "unseeded");
}

TEST(Sweep, ProbeCellsExposeEnvironmentState)
{
    const ResultSet results = SweepRunner(2).run(tinySweep());
    EXPECT_FALSE(results.cell("tiny", "probe").measured);
    EXPECT_GT(results.extra("tiny", "probe", "vmas"), 0.0);
}

TEST(Sweep, CellCsvHasOneLinePerCell)
{
    const ResultSet results = SweepRunner(2).run(tinySweep());
    const std::string csv = results.toCsv();
    const auto lines = std::count(csv.begin(), csv.end(), '\n');
    EXPECT_EQ(lines, 1 + 4);   // header + 4 cells
    EXPECT_EQ(csv.rfind("row,column,measured,status,accesses", 0), 0u);
}

TEST(Sweep, AsapCountersSurfaceInRunStats)
{
    const ResultSet results = SweepRunner(2).run(tinySweep());
    const RunStats &asapStats = results.stats("tiny", "asap");
    // The ASAP environment with a P1+P2 engine must have fired.
    EXPECT_GT(asapStats.appAsap.triggers, 0u);
    EXPECT_GT(asapStats.appAsap.rangeHits, 0u);
    EXPECT_GE(asapStats.appAsap.attempted, asapStats.appAsap.rangeHits);
    EXPECT_GT(asapStats.appAsap.issued, 0u);
    EXPECT_LE(asapStats.appAsap.issued, asapStats.appAsap.attempted);
    // Baseline cell has no engine: counters stay zero.
    const RunStats &baseStats = results.stats("tiny", "base");
    EXPECT_EQ(baseStats.appAsap.triggers, 0u);
    EXPECT_EQ(baseStats.appAsap.issued, 0u);
}

// ---------------------------------------------------------------------------
// AsapEngine unit tests (counters)
// ---------------------------------------------------------------------------

namespace
{

/** A register file with one descriptor covering [base, base+span). */
RangeRegisterFile
fileWithDescriptor(VirtAddr base, std::uint64_t span,
                   std::vector<unsigned> levels)
{
    RangeRegisterFile file;
    VmaDescriptor descriptor;
    descriptor.start = base;
    descriptor.end = base + span;
    for (const unsigned level : levels) {
        LevelDescriptor &ld = descriptor.levels[level];
        ld.valid = true;
        ld.level = level;
        ld.vaBase = alignDown(base, nodeSpan(level));
        ld.basePa = 0x100000 * level;
    }
    file.install(descriptor);
    return file;
}

} // namespace

TEST(AsapEngine, CountsTriggersHitsAttemptsAndIssues)
{
    MemoryHierarchy mem;
    RangeRegisterFile file =
        fileWithDescriptor(1_GiB, 64_MiB, {1, 2});
    AsapEngine engine(file, mem, AsapConfig::p1p2());

    engine.onWalkStart(1_GiB + 4096, 0);
    EXPECT_EQ(engine.triggers(), 1u);
    EXPECT_EQ(engine.rangeHits(), 1u);
    EXPECT_EQ(engine.attempted(), 2u);   // PL1 + PL2
    EXPECT_EQ(engine.issued(), 2u);

    // A miss outside the range: trigger counted, nothing attempted.
    engine.onWalkStart(8_GiB, 0);
    EXPECT_EQ(engine.triggers(), 2u);
    EXPECT_EQ(engine.rangeHits(), 1u);
    EXPECT_EQ(engine.attempted(), 2u);
}

TEST(AsapEngine, SkipsInvalidLevels)
{
    MemoryHierarchy mem;
    RangeRegisterFile file = fileWithDescriptor(1_GiB, 64_MiB, {1});
    AsapEngine engine(file, mem, AsapConfig::p1p2());   // wants 1 and 2

    engine.onWalkStart(1_GiB, 0);
    EXPECT_EQ(engine.rangeHits(), 1u);
    EXPECT_EQ(engine.attempted(), 1u);   // only PL1 is valid
}

TEST(AsapEngine, DisabledEngineCountsNothing)
{
    MemoryHierarchy mem;
    RangeRegisterFile file = fileWithDescriptor(1_GiB, 64_MiB, {1, 2});
    AsapEngine engine(file, mem, AsapConfig::off());

    engine.onWalkStart(1_GiB, 0);
    EXPECT_EQ(engine.triggers(), 0u);
    EXPECT_EQ(engine.rangeHits(), 0u);
    EXPECT_EQ(engine.attempted(), 0u);
    EXPECT_EQ(engine.issued(), 0u);
}

TEST(AsapEngine, IssueStopsWhenMshrsExhausted)
{
    HierarchyConfig config;
    config.prefetchMshrs = 4;
    MemoryHierarchy mem(config);
    RangeRegisterFile file = fileWithDescriptor(1_GiB, 64_MiB, {1});
    AsapEngine engine(file, mem, AsapConfig::p1());

    // Distinct lines at the same timestamp: only the MSHR budget's
    // worth of prefetches can be in flight at once.
    for (unsigned i = 0; i < 64; ++i)
        engine.onWalkStart(1_GiB + i * 32 * pageSize, 0);
    EXPECT_EQ(engine.attempted(), 64u);
    EXPECT_LT(engine.issued(), 64u);
    EXPECT_GE(engine.issued(), 4u);
}

// ---------------------------------------------------------------------------
// Stats merge helpers (cross-cell aggregation)
// ---------------------------------------------------------------------------

TEST(StatsMerge, SampleStatMergeMatchesCombinedSampling)
{
    SampleStat a, b, combined;
    for (const std::uint64_t v : {5u, 7u, 100u}) {
        a.sample(v);
        combined.sample(v);
    }
    for (const std::uint64_t v : {1u, 9u}) {
        b.sample(v);
        combined.sample(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_EQ(a.sum(), combined.sum());
    EXPECT_EQ(a.min(), combined.min());
    EXPECT_EQ(a.max(), combined.max());
}

TEST(StatsMerge, LevelDistributionMergeAddsCounts)
{
    LevelDistribution a, b;
    a.record(MemLevel::Pwc);
    a.record(MemLevel::Dram);
    b.record(MemLevel::Dram);
    a.merge(b);
    EXPECT_EQ(a.total(), 3u);
    EXPECT_EQ(a.count(MemLevel::Dram), 2u);
    EXPECT_EQ(a.count(MemLevel::Pwc), 1u);
}
