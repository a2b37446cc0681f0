/**
 * @file
 * Resilient-execution-layer tests: the Status error model, recoverable
 * corrupt-input loading through the library boundaries, deterministic
 * fault injection, fault-isolated sweeps (error cells, retry,
 * timeout), journal round-trips with checkpoint/resume byte-identity,
 * and a regression replay of the fuzz seed corpus through the real
 * fuzzer entry points.
 *
 * Sweep tests pin SweepRunner(1): fault-injection hit counters are
 * process-wide, so single-threaded execution is what makes "the first
 * N probe hits" land on a known cell.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_inject.hh"
#include "common/status.hh"
#include "exp/journal.hh"
#include "exp/sweep.hh"
#include "expect_status.hh"
#include "mc/multicore.hh"
#include "trace/convert.hh"
#include "trace/fuzz_entry.hh"
#include "trace/trace_file.hh"
#include "workloads/suite.hh"
#include "workloads/trace.hh"

using namespace asap;

namespace
{

/** Set an environment variable for one scope, restoring on exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (old_.has_value())
            ::setenv(name_.c_str(), old_->c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    std::optional<std::string> old_;
};

/** Disarm fault injection when a test scope ends, pass or fail. */
struct FaultGuard
{
    ~FaultGuard() { fault::reconfigure(nullptr); }
};

/** RAII temp directory under the test working directory. */
class TempDir
{
  public:
    explicit TempDir(std::string path) : path_(std::move(path))
    {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Small, fast generator spec for sweep-level tests. */
WorkloadSpec
tinySpec(const char *name = "robusttiny")
{
    WorkloadSpec spec;
    spec.name = name;
    spec.paperGb = 0.5;
    spec.residentPages = 3'000;
    spec.dataVmas = 2;
    spec.smallVmas = 3;
    spec.cyclesPerAccess = 4;
    spec.windowFraction = 0.5;
    spec.windowPages = 300;
    spec.nearFraction = 0.1;
    spec.seqFraction = 0.1;
    spec.linesPerPage = 2;
    spec.burstContinueProb = 0.5;
    spec.machineMemBytes = 256_MiB;
    spec.guestMemBytes = 64_MiB;
    spec.churnOps = 1'000;
    spec.churnMaxOrder = 2;
    return spec;
}

RunConfig
tinyRun()
{
    RunConfig run;
    run.warmupAccesses = 2'000;
    run.measureAccesses = 10'000;
    run.seed = 7;
    return run;
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return bytes;
}

void
writeAll(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** This process's threads, as /proc/self/task lists them. */
std::size_t
threadCount()
{
    using std::filesystem::directory_iterator;
    return static_cast<std::size_t>(std::distance(
        directory_iterator("/proc/self/task"), directory_iterator()));
}

} // namespace

// ---------------------------------------------------------------------------
// Status / StatusOr
// ---------------------------------------------------------------------------

TEST(Status, CodesMessagesAndTransience)
{
    EXPECT_TRUE(Status::okStatus().ok());
    EXPECT_EQ(Status::okStatus().toString(), "OK");

    const Status corrupt = Status::dataLoss("bad magic");
    EXPECT_FALSE(corrupt.ok());
    EXPECT_EQ(corrupt.code(), StatusCode::DataLoss);
    EXPECT_EQ(corrupt.message(), "bad magic");
    EXPECT_EQ(corrupt.toString(), "DATA_LOSS: bad magic");
    EXPECT_FALSE(corrupt.transient());

    // Exactly the retryable triple.
    EXPECT_TRUE(Status::unavailable("io flake").transient());
    EXPECT_TRUE(Status::resourceExhausted("oom").transient());
    EXPECT_TRUE(Status::deadlineExceeded("slow").transient());
    EXPECT_FALSE(Status::invalidArgument("bad").transient());
    EXPECT_FALSE(Status::notFound("missing").transient());
    EXPECT_FALSE(Status::cancelled("stop").transient());
    EXPECT_FALSE(Status::internal("bug").transient());

    EXPECT_EQ(corrupt, Status::dataLoss("bad magic"));
    EXPECT_NE(corrupt, Status::dataLoss("other"));
}

TEST(Status, StatusOrValueAndError)
{
    StatusOr<int> good(42);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 42);
    EXPECT_EQ(*good, 42);
    EXPECT_EQ(std::move(good).valueOrThrow(), 42);

    StatusOr<int> bad(Status::notFound("no such"));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::NotFound);
    testutil::expectStatusError(
        [&] { std::move(bad).valueOrThrow(); }, StatusCode::NotFound,
        "no such");
}

TEST(Status, RunToStatusFunnel)
{
    EXPECT_TRUE(runToStatus([] {}).ok());

    const Status fromError = runToStatus(
        [] { throwStatus(Status::dataLoss("torn bytes")); });
    EXPECT_EQ(fromError.code(), StatusCode::DataLoss);
    EXPECT_EQ(fromError.message(), "torn bytes");

    const Status fromOom = runToStatus([] { throw std::bad_alloc(); });
    EXPECT_EQ(fromOom.code(), StatusCode::ResourceExhausted);

    const Status fromOther =
        runToStatus([] { throw std::runtime_error("surprise"); });
    EXPECT_EQ(fromOther.code(), StatusCode::Internal);
    EXPECT_EQ(fromOther.message(), "surprise");
}

// ---------------------------------------------------------------------------
// Corrupt input comes back as an error Status through the library API
// ---------------------------------------------------------------------------

TEST(RobustInput, CorruptTraceLoadsAsErrorStatus)
{
    const std::string path = "robust_corrupt.asaptrace";
    writeAll(path, "this is not a trace container at all");

    const auto opened = TraceFile::open(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::DataLoss);
    EXPECT_NE(opened.status().message().find(path), std::string::npos)
        << opened.status().message();

    Trc2Summary summary;
    const Status converted =
        tryConvertToV2(path, "robust_corrupt_out.trc2", summary);
    EXPECT_FALSE(converted.ok());
    EXPECT_EQ(converted.code(), StatusCode::DataLoss);

    std::remove(path.c_str());
    std::remove("robust_corrupt_out.trc2");
}

TEST(RobustInput, MissingTraceLoadsAsErrorStatus)
{
    const auto opened = TraceFile::open("robust_definitely_missing.trc");
    ASSERT_FALSE(opened.ok());
    // The open failure names the path and the OS reason (strerror).
    EXPECT_NE(opened.status().message().find(
                  "robust_definitely_missing.trc"),
              std::string::npos);
}

TEST(RobustInput, TruncatedTraceLoadsAsErrorStatus)
{
    const std::string valid = "robust_truncated_src.asaptrace";
    recordTrace(tinySpec(), valid, 7, 200);
    const std::string bytes = readAll(valid);
    ASSERT_GT(bytes.size(), 40u);

    const std::string cut = "robust_truncated.asaptrace";
    writeAll(cut, bytes.substr(0, bytes.size() / 2));
    const auto opened = TraceFile::open(cut);
    EXPECT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::DataLoss);

    std::remove(valid.c_str());
    std::remove(cut.c_str());
}

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

TEST(FaultInject, RulesCountAndFire)
{
    FaultGuard guard;
    fault::reconfigure("probe:2:2");
    EXPECT_TRUE(fault::armed());

    EXPECT_FALSE(fault::shouldFail("probe"));   // hit 1
    EXPECT_TRUE(fault::shouldFail("probe"));    // hit 2: fails
    EXPECT_TRUE(fault::shouldFail("probe"));    // hit 3: fails (count 2)
    EXPECT_FALSE(fault::shouldFail("probe"));   // hit 4
    EXPECT_EQ(fault::hitCount("probe"), 4u);
    EXPECT_EQ(fault::hitCount("othersite"), 0u);

    fault::reconfigure("a:1,b:3");
    EXPECT_EQ(fault::hitCount("probe"), 0u);    // counters reset
    EXPECT_TRUE(fault::shouldFail("a"));
    EXPECT_FALSE(fault::shouldFail("b"));
    EXPECT_FALSE(fault::shouldFail("b"));
    EXPECT_TRUE(fault::shouldFail("b"));

    fault::reconfigure(nullptr);
    EXPECT_FALSE(fault::armed());
    EXPECT_FALSE(fault::shouldFail("a"));
}

TEST(FaultInject, ProbesThrowTheRightShapes)
{
    FaultGuard guard;
    fault::reconfigure("flaky:1");
    testutil::expectStatusError([] { fault::maybeFail("flaky"); },
                                StatusCode::Unavailable, "flaky");
    fault::maybeFail("flaky");   // hit 2: no throw

    fault::reconfigure("alloc:1");
    EXPECT_THROW(fault::maybeOom("alloc"), std::bad_alloc);
    fault::maybeOom("alloc");    // hit 2: no throw
}

TEST(FaultInject, FileReadFaultSurfacesAsUnavailable)
{
    FaultGuard guard;
    const std::string path = "robust_fault_read.asaptrace";
    recordTrace(tinySpec(), path, 7, 200);

    fault::reconfigure("file-open:1");
    const auto opened = TraceFile::open(path);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::Unavailable);
    EXPECT_TRUE(opened.status().transient());

    // The same open succeeds once the injected fault has fired.
    fault::reconfigure(nullptr);
    EXPECT_TRUE(TraceFile::open(path).ok());
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Fault-isolated sweeps
// ---------------------------------------------------------------------------

TEST(RobustSweep, ErrorCellLeavesSiblingsStanding)
{
    FaultGuard guard;
    ScopedEnv retries("ASAP_CELL_RETRIES", "2");   // 3 attempts
    ScopedEnv timeout("ASAP_CELL_TIMEOUT", nullptr);
    ScopedEnv resume("ASAP_RESUME", nullptr);
    ScopedEnv baseMs("ASAP_RETRY_BASE_MS", "1");
    TempDir dir("robust_results_errcell");
    ScopedEnv results("ASAP_RESULTS_DIR", dir.path().c_str());

    exp::SweepSpec sweep("robust_errcell");
    sweep.add(tinySpec(), {}, MachineConfig{}, tinyRun(), "r", "doomed");
    sweep.add(tinySpec(), {}, MachineConfig{}, tinyRun(), "r", "fine");

    // Both cells share one group (same spec+env), so with one worker
    // the first three "cell" probe hits are exactly the doomed cell's
    // three attempts; the fourth is the sibling's first.
    fault::reconfigure("cell:1:3");
    const exp::ResultSet out = exp::SweepRunner(1).run(sweep);

    const exp::CellResult &doomed = out.cell("r", "doomed");
    EXPECT_FALSE(doomed.status.ok());
    EXPECT_EQ(doomed.status.code(), StatusCode::Unavailable);
    EXPECT_EQ(doomed.attempts, 3u);
    EXPECT_FALSE(doomed.measured);

    const exp::CellResult &fine = out.cell("r", "fine");
    EXPECT_TRUE(fine.status.ok());
    EXPECT_TRUE(fine.measured);
    EXPECT_EQ(fine.attempts, 1u);
    EXPECT_GT(fine.stats.accesses, 0u);

    // Artifacts carry the failure as data, not as a crash.
    const std::string csv = out.toCsv();
    EXPECT_NE(csv.find("row,column,measured,status"), std::string::npos);
    EXPECT_NE(csv.find("r,doomed,0,UNAVAILABLE"), std::string::npos);
    EXPECT_NE(csv.find("r,fine,1,OK"), std::string::npos);
}

TEST(RobustSweep, InjectedOomBecomesResourceExhaustedCell)
{
    FaultGuard guard;
    ScopedEnv retries("ASAP_CELL_RETRIES", "0");   // single attempt
    ScopedEnv timeout("ASAP_CELL_TIMEOUT", nullptr);
    ScopedEnv resume("ASAP_RESUME", nullptr);
    TempDir dir("robust_results_oomcell");
    ScopedEnv results("ASAP_RESULTS_DIR", dir.path().c_str());

    // Two groups: the OOM is injected into whichever Environment is
    // built first; with one worker that is the first group in key
    // order. Assert the *shape* — exactly one RESOURCE_EXHAUSTED error
    // cell, and the other cell measured — not which one.
    WorkloadSpec other = tinySpec("robustother");
    other.residentPages = 2'000;

    exp::SweepSpec sweep("robust_oomcell");
    sweep.add(tinySpec(), {}, MachineConfig{}, tinyRun(), "r", "a");
    sweep.add(other, {}, MachineConfig{}, tinyRun(), "r", "b");

    fault::reconfigure("env-alloc:1");
    const exp::ResultSet out = exp::SweepRunner(1).run(sweep);

    unsigned failed = 0, measured = 0;
    for (const exp::CellResult &cell : out.cells()) {
        if (cell.status.ok()) {
            EXPECT_TRUE(cell.measured);
            ++measured;
        } else {
            EXPECT_EQ(cell.status.code(),
                      StatusCode::ResourceExhausted);
            ++failed;
        }
    }
    EXPECT_EQ(failed, 1u);
    EXPECT_EQ(measured, 1u);
}

TEST(RobustSweep, CorruptTraceAndOomCellsCompleteSiblings)
{
    FaultGuard guard;
    ScopedEnv retries("ASAP_CELL_RETRIES", "0");
    ScopedEnv timeout("ASAP_CELL_TIMEOUT", nullptr);
    ScopedEnv resume("ASAP_RESUME", nullptr);
    TempDir dir("robust_results_mixed");
    ScopedEnv results("ASAP_RESULTS_DIR", dir.path().c_str());

    const std::string corruptPath = "robust_mixed_corrupt.asaptrace";
    writeAll(corruptPath, "ASAPTRC?not really a trace container");
    WorkloadSpec corrupt = tinySpec("aaa_corrupt");
    corrupt.tracePath = corruptPath;

    WorkloadSpec healthy = tinySpec("mmm_healthy");
    WorkloadSpec oomed = tinySpec("zzz_oomed");
    oomed.residentPages = 2'000;

    exp::SweepSpec sweep("robust_mixed");
    sweep.add(corrupt, {}, MachineConfig{}, tinyRun(), "r", "corrupt");
    sweep.add(healthy, {}, MachineConfig{}, tinyRun(), "r", "healthy");
    sweep.add(oomed, {}, MachineConfig{}, tinyRun(), "r", "oomed");

    // With one worker, groups execute in environment-key order, which
    // the aaa/mmm/zzz spec names pin: the env-alloc probe's third hit
    // is the oomed cell's Environment construction.
    fault::reconfigure("env-alloc:3");
    const exp::ResultSet out = exp::SweepRunner(1).run(sweep);

    EXPECT_EQ(out.cell("r", "corrupt").status.code(),
              StatusCode::DataLoss);
    EXPECT_FALSE(out.cell("r", "corrupt").measured);
    EXPECT_EQ(out.cell("r", "oomed").status.code(),
              StatusCode::ResourceExhausted);
    EXPECT_TRUE(out.cell("r", "healthy").status.ok());
    EXPECT_TRUE(out.cell("r", "healthy").measured);

    std::remove(corruptPath.c_str());
}

TEST(RobustSweep, TransientFaultRetriesThenMatchesCleanRun)
{
    FaultGuard guard;
    ScopedEnv retries("ASAP_CELL_RETRIES", "2");
    ScopedEnv baseMs("ASAP_RETRY_BASE_MS", "1");
    ScopedEnv timeout("ASAP_CELL_TIMEOUT", nullptr);
    ScopedEnv resume("ASAP_RESUME", nullptr);
    TempDir dir("robust_results_retry");
    ScopedEnv results("ASAP_RESULTS_DIR", dir.path().c_str());

    exp::SweepSpec sweep("robust_retry");
    sweep.add(tinySpec(), {}, MachineConfig{}, tinyRun(), "r", "c");

    fault::reconfigure(nullptr);
    const exp::ResultSet clean = exp::SweepRunner(1).run(sweep);
    EXPECT_EQ(clean.cell("r", "c").attempts, 1u);

    // A failing first attempt, with no deadline and with one armed
    // that no attempt of this cell reaches.
    for (const char *seconds : {static_cast<const char *>(nullptr), "60"}) {
        SCOPED_TRACE(seconds ? seconds : "no deadline");
        ScopedEnv bound("ASAP_CELL_TIMEOUT", seconds);
        fault::reconfigure("cell:1");
        const exp::ResultSet faulted = exp::SweepRunner(1).run(sweep);
        EXPECT_TRUE(faulted.cell("r", "c").status.ok());
        EXPECT_EQ(faulted.cell("r", "c").attempts, 2u);
        // A retried cell runs on a rebuilt Environment, so its measured
        // results are bit-identical to a run that never faulted (the
        // JSON artifact legitimately differs in its "attempts" field).
        EXPECT_EQ(faulted.toCsv(), clean.toCsv());
    }
}

TEST(RobustSweep, HungCellTimesOutAndSiblingCompletes)
{
    FaultGuard guard;
    ScopedEnv retries("ASAP_CELL_RETRIES", "0");
    ScopedEnv timeout("ASAP_CELL_TIMEOUT", "1");
    ScopedEnv resume("ASAP_RESUME", nullptr);
    TempDir dir("robust_results_timeout");
    ScopedEnv results("ASAP_RESULTS_DIR", dir.path().c_str());

    exp::SweepSpec sweep("robust_timeout");
    sweep.add(tinySpec(), {}, MachineConfig{}, tinyRun(), "r", "hung");
    sweep.add(tinySpec(), {}, MachineConfig{}, tinyRun(), "r", "fine");

    fault::reconfigure("cell-hang:1");
    const exp::ResultSet out = exp::SweepRunner(1).run(sweep);

    const exp::CellResult &hung = out.cell("r", "hung");
    EXPECT_FALSE(hung.status.ok());
    EXPECT_EQ(hung.status.code(), StatusCode::DeadlineExceeded);
    EXPECT_NE(hung.status.message().find("ASAP_CELL_TIMEOUT"),
              std::string::npos);

    const exp::CellResult &fine = out.cell("r", "fine");
    EXPECT_TRUE(fine.status.ok());
    EXPECT_TRUE(fine.measured);
}

TEST(RobustSweep, AbandonedAttemptWritesNoArtifact)
{
    FaultGuard guard;
    ScopedEnv retries("ASAP_CELL_RETRIES", "0");
    ScopedEnv timeout("ASAP_CELL_TIMEOUT", "1");
    ScopedEnv resume("ASAP_RESUME", nullptr);
    ScopedEnv timeline("ASAP_TIMELINE", "1");
    TempDir dir("robust_results_abandoned");
    ScopedEnv results("ASAP_RESULTS_DIR", dir.path().c_str());

    exp::SweepSpec sweep("robust_abandoned");
    sweep.add(tinySpec(), {}, MachineConfig{}, tinyRun(), "r", "hung");
    sweep.add(tinySpec(), {}, MachineConfig{}, tinyRun(), "r", "fine");

    fault::reconfigure("cell-hang:1");
    const exp::ResultSet out = exp::SweepRunner(1).run(sweep);
    EXPECT_EQ(out.cell("r", "hung").status.code(),
              StatusCode::DeadlineExceeded);
    ASSERT_TRUE(out.cell("r", "fine").status.ok());
    const std::string stem = dir.path() + "/robust_abandoned_timeline_r_";
    EXPECT_TRUE(std::filesystem::exists(stem + "fine.jsonl"));
    // The timed-out attempt stopped on its worker before run() returned.
    EXPECT_FALSE(std::filesystem::exists(stem + "hung.jsonl"));
}

TEST(RobustSweep, TimedOutCellLeavesNoThreadRunning)
{
    FaultGuard guard;
    ScopedEnv retries("ASAP_CELL_RETRIES", "0");
    ScopedEnv timeout("ASAP_CELL_TIMEOUT", "1");
    ScopedEnv resume("ASAP_RESUME", nullptr);
    TempDir dir("robust_results_cancel");
    ScopedEnv results("ASAP_RESULTS_DIR", dir.path().c_str());

    // Two cells that would simulate for minutes, each in a group of its
    // own: a measured cell of 4e9 accesses, and a probe cell that runs
    // a MultiCoreSimulator of its own for as long.
    RunConfig run = tinyRun();
    run.measureAccesses = 4'000'000'000;
    exp::SweepSpec sweep("robust_cancel");
    sweep.add(tinySpec(), {}, MachineConfig{}, run, "r", "sim");
    sweep.addProbe(tinySpec("robustmc"), {}, "r", "mc",
                   [run](Environment &env, exp::CellResult &) {
                       mc::MultiCoreSimulator sim(mc::McConfig{},
                                                  MachineConfig{});
                       sim.addTenant(env.system(), env.workload());
                       sim.run(run);
                   });

    const std::size_t threadsBefore = threadCount();
    const auto start = std::chrono::steady_clock::now();
    const exp::ResultSet out = exp::SweepRunner(2).run(sweep);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(10));
    // Both attempts stopped on their workers: nothing still simulates.
    EXPECT_EQ(threadCount(), threadsBefore);
    for (const char *column : {"sim", "mc"}) {
        SCOPED_TRACE(column);
        const exp::CellResult &cell = out.cell("r", column);
        EXPECT_EQ(cell.status.code(), StatusCode::DeadlineExceeded);
        EXPECT_NE(cell.status.message().find("ASAP_CELL_TIMEOUT"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------------
// Journal round-trip and checkpoint/resume
// ---------------------------------------------------------------------------

TEST(Journal, CellResultRoundTrips)
{
    exp::CellResult error;
    error.row = "r";
    error.column = "broken";
    error.status = Status::dataLoss("chunk 3 is torn");
    error.attempts = 3;

    exp::CellResult back;
    ASSERT_TRUE(
        exp::cellResultFromJson(exp::cellResultToJson(error), back));
    EXPECT_EQ(back.row, "r");
    EXPECT_EQ(back.column, "broken");
    EXPECT_FALSE(back.measured);
    EXPECT_EQ(back.status, error.status);
    EXPECT_EQ(back.attempts, 3u);

    // u64 fidelity: values past 2^53 must survive (they are encoded as
    // decimal strings precisely because JSON numbers are doubles).
    exp::CellResult big;
    big.row = "r";
    big.column = "big";
    big.measured = true;
    big.attempts = 1;
    big.stats.accesses = (1ull << 60) + 12345;
    big.stats.totalCycles = UINT64_MAX - 7;
    big.extra["vmas"] = 42.0;

    exp::CellResult bigBack;
    ASSERT_TRUE(
        exp::cellResultFromJson(exp::cellResultToJson(big), bigBack));
    EXPECT_EQ(bigBack.stats.accesses, (1ull << 60) + 12345);
    EXPECT_EQ(bigBack.stats.totalCycles, UINT64_MAX - 7);
    EXPECT_EQ(bigBack.extra.at("vmas"), 42.0);

    exp::Json junk = exp::Json::object();
    junk.set("row", 3.0);   // wrong type
    exp::CellResult untouched;
    EXPECT_FALSE(exp::cellResultFromJson(junk, untouched));
}

/**
 * The journal bytes of a cell whose every RunStats part holds distinct
 * nonzero values, pinned by hash: resume reads journals written by
 * earlier builds, so the encoding must not move.
 */
TEST(Journal, EveryRunStatsPartEncodesByteForByte)
{
    exp::CellResult r;
    r.row = "r";
    r.column = "every";
    r.measured = true;
    r.attempts = 2;
    r.extra["vmas"] = 42.0;

    RunStats &s = r.stats;
    s.accesses = (1ull << 60) + 12345;
    s.tlbL1Hits = (1ull << 54) + 1;
    s.tlbL2Hits = (1ull << 55) + 3;
    s.tlbMisses = (1ull << 56) + 5;
    s.faults = (1ull << 53) + 7;
    s.totalCycles = UINT64_MAX - 7;
    s.walkCycles = (1ull << 57) + 11;
    s.dataCycles = (1ull << 58) + 13;
    s.computeCycles = (1ull << 59) + 17;

    // (2^40)^2 overflows 64 bits: the second moment needs sqHi.
    for (const std::uint64_t v : {7ull, (1ull << 40) + 3, 123'456'789ull})
        s.walkLatency.sample(v);
    for (unsigned level = 1; level <= 5; ++level) {
        s.levelDist[level].restoreCount(MemLevel::Pwc, 100 * level + 1);
        s.levelDist[level].restoreCount(MemLevel::L2, 100 * level + 2);
        s.levelDist[level].restoreCount(MemLevel::Dram,
                                        (1ull << 53) + level);
        s.levelHist[level].sample(10 * level);
        s.levelHist[level].sample(1'000 * level + 7);
    }
    for (const std::uint64_t v : {3ull, 190ull, 5'000ull, 1ull << 50})
        s.walkHist.sample(v);
    for (const std::uint64_t v : {1ull, 4ull, 44ull, 300ull, 300ull})
        s.dataHist.sample(v);

    s.appAsap = {(1ull << 54) + 21, 22, 23, 24};
    s.hostAsap = {31, 32, 33, (1ull << 55) + 34};

    OsDynStats &d = s.dyn;
    d.events = 1;
    d.mmaps = 2;
    d.munmaps = 3;
    d.minorFaults = 4;
    d.madviseFrees = 5;
    d.extends = 6;
    d.churnReleases = 7;
    d.dataPagesFreed = 8;
    d.ptNodesFreed = 9;
    d.churnFramesReleased = 10;
    d.tlbInvalidated = 11;
    d.pwcInvalidated = 12;
    d.regionGrowthHoles = 13;
    d.regionRelocations = 14;
    d.regionsReleased = 15;
    d.regionFramesReleased = (1ull << 53) + 16;

    s.counters = {{"tlb.l1Hits", (1ull << 61) + 1},
                  {"llc.misses", 77},
                  {"dyn.events", 1}};

    const std::string dump = exp::cellResultToJson(r).dump();
    EXPECT_EQ(exp::fnv1a64(dump), 0x267b08701a76e475ull) << dump;

    const auto doc = exp::Json::parse(dump);
    ASSERT_TRUE(doc.has_value());
    exp::CellResult back;
    ASSERT_TRUE(exp::cellResultFromJson(*doc, back));
    EXPECT_EQ(exp::cellResultToJson(back).dump(), dump);
    EXPECT_TRUE(back.stats.diff(r.stats).empty());
}

TEST(Journal, ResumeReproducesArtifactsByteForByte)
{
    FaultGuard guard;
    ScopedEnv retries("ASAP_CELL_RETRIES", "0");
    ScopedEnv timeout("ASAP_CELL_TIMEOUT", nullptr);
    TempDir dir("robust_results_resume");
    ScopedEnv results("ASAP_RESULTS_DIR", dir.path().c_str());

    WorkloadSpec other = tinySpec("robustother");
    other.residentPages = 2'000;

    exp::SweepSpec sweep("robust_resume");
    sweep.add(tinySpec(), {}, MachineConfig{}, tinyRun(), "r", "a");
    sweep.add(tinySpec(), {}, MachineConfig{}, tinyRun(), "r", "b");
    sweep.add(other, {}, MachineConfig{}, tinyRun(), "s", "a");

    // Reference: a clean uninterrupted run (journal fully written).
    std::string csvRef, jsonRef;
    {
        ScopedEnv resume("ASAP_RESUME", nullptr);
        const exp::ResultSet ref = exp::SweepRunner(1).run(sweep);
        csvRef = ref.toCsv();
        jsonRef = ref.toJson().dump(2);
        for (const exp::CellResult &cell : ref.cells())
            EXPECT_FALSE(cell.resumed);
    }

    const std::string journalPath =
        exp::CellJournal::pathFor("robust_resume");
    ASSERT_TRUE(std::filesystem::exists(journalPath));
    // A completed sweep seals its journal into cell-index order, so
    // the on-disk journal itself is part of the deterministic-output
    // contract from here on.
    const std::string journalRef = readAll(journalPath);

    // Simulate a crash before the last journal append: drop the final
    // record line. The torn group recomputes; the others restore.
    {
        std::string journal = readAll(journalPath);
        ASSERT_FALSE(journal.empty());
        const auto lastNewline =
            journal.find_last_of('\n', journal.size() - 2);
        ASSERT_NE(lastNewline, std::string::npos);
        writeAll(journalPath, journal.substr(0, lastNewline + 1));
    }
    {
        ScopedEnv resume("ASAP_RESUME", "1");
        const exp::ResultSet out = exp::SweepRunner(1).run(sweep);
        EXPECT_EQ(out.toCsv(), csvRef);
        EXPECT_EQ(out.toJson().dump(2), jsonRef);
        unsigned resumed = 0, recomputed = 0;
        for (const exp::CellResult &cell : out.cells())
            (cell.resumed ? resumed : recomputed) += 1;
        EXPECT_GE(resumed, 1u);
        EXPECT_GE(recomputed, 1u);
    }
    // The resumed run completed, so its re-sealed journal must match
    // the uninterrupted run's byte for byte.
    EXPECT_EQ(readAll(journalPath), journalRef);

    // The resumed run rewrote the missing record; a second resume
    // restores every cell without executing anything.
    {
        ScopedEnv resume("ASAP_RESUME", "1");
        const exp::ResultSet out = exp::SweepRunner(1).run(sweep);
        EXPECT_EQ(out.toCsv(), csvRef);
        EXPECT_EQ(out.toJson().dump(2), jsonRef);
        for (const exp::CellResult &cell : out.cells())
            EXPECT_TRUE(cell.resumed);
    }
}

TEST(Journal, OutOfRangeNumbersAreNeverRestored)
{
    FaultGuard guard;
    ScopedEnv retries("ASAP_CELL_RETRIES", "0");
    ScopedEnv timeout("ASAP_CELL_TIMEOUT", nullptr);
    TempDir dir("robust_results_badnumbers");
    ScopedEnv results("ASAP_RESULTS_DIR", dir.path().c_str());

    WorkloadSpec other = tinySpec("robustother");
    other.residentPages = 2'000;
    exp::SweepSpec sweep("robust_badnumbers");
    sweep.add(tinySpec(), {}, MachineConfig{}, tinyRun(), "r", "a");
    sweep.add(tinySpec(), {}, MachineConfig{}, tinyRun(), "r", "b");
    sweep.add(other, {}, MachineConfig{}, tinyRun(), "s", "a");

    std::string csvRef, jsonRef;
    {
        ScopedEnv resume("ASAP_RESUME", nullptr);
        const exp::ResultSet ref = exp::SweepRunner(1).run(sweep);
        csvRef = ref.toCsv();
        jsonRef = ref.toJson().dump(2);
    }
    const std::string journalPath =
        exp::CellJournal::pathFor("robust_badnumbers");
    const std::string journalRef = readAll(journalPath);

    // Corrupt one number of the header or of cell 0's record. Every
    // value here is a negative, fractional, out-of-range or non-JSON
    // number; none may be cast into a restored index or attempt count.
    const std::string header = "\"cells\":3";
    const std::string cell = "{\"cell\":0,";
    const std::string attempts = "\"attempts\":1,";
    const std::vector<std::pair<std::string, std::string>> edits = {
        {cell, "{\"cell\":-1,"},         {cell, "{\"cell\":1.5,"},
        {cell, "{\"cell\":1e400,"},      {cell, "{\"cell\":inf,"},
        {cell, "{\"cell\":NaN,"},        {cell, "{\"cell\":-0.5,"},
        {cell, "{\"cell\":0x0,"},        {cell, "{\"cell\":+0,"},
        {attempts, "\"attempts\":-1,"},  {attempts, "\"attempts\":1.5,"},
        {attempts, "\"attempts\":1e400,"}, {attempts, "\"attempts\":inf,"},
        {attempts, "\"attempts\":NaN,"}, {attempts, "\"attempts\":1e10,"},
        {header, "\"cells\":-3"},        {header, "\"cells\":3.5"},
        {header, "\"cells\":inf"},
    };
    for (const auto &[from, to] : edits) {
        SCOPED_TRACE(to);
        std::string journal = journalRef;
        const std::size_t at =
            journal.find(from, from == header ? 0 : journal.find('\n'));
        ASSERT_NE(at, std::string::npos);
        writeAll(journalPath, journal.replace(at, from.size(), to));

        ScopedEnv resume("ASAP_RESUME", "1");
        const exp::ResultSet out = exp::SweepRunner(1).run(sweep);
        EXPECT_FALSE(out.cell("r", "a").resumed);
        // A bad record costs only its own cell: the later cell (s, a),
        // a group of its own, still restores past it.
        EXPECT_EQ(out.cell("s", "a").resumed, from != header);
        EXPECT_EQ(out.toCsv(), csvRef);
        EXPECT_EQ(out.toJson().dump(2), jsonRef);
        EXPECT_EQ(readAll(journalPath), journalRef);
    }
}

TEST(Journal, MismatchedJournalIsIgnored)
{
    ScopedEnv retries("ASAP_CELL_RETRIES", "0");
    TempDir dir("robust_results_mismatch");
    ScopedEnv results("ASAP_RESULTS_DIR", dir.path().c_str());

    exp::SweepSpec sweep("robust_mismatch");
    sweep.add(tinySpec(), {}, MachineConfig{}, tinyRun(), "r", "a");
    {
        ScopedEnv resume("ASAP_RESUME", nullptr);
        exp::SweepRunner(1).run(sweep);
    }

    // A sweep with the same name but a different shape must not adopt
    // the stale records (header cell count differs).
    exp::SweepSpec reshaped("robust_mismatch");
    reshaped.add(tinySpec(), {}, MachineConfig{}, tinyRun(), "r", "a");
    reshaped.add(tinySpec(), {}, MachineConfig{}, tinyRun(), "r", "b");
    {
        ScopedEnv resume("ASAP_RESUME", "1");
        const exp::ResultSet out = exp::SweepRunner(1).run(reshaped);
        for (const exp::CellResult &cell : out.cells()) {
            EXPECT_FALSE(cell.resumed);
            EXPECT_TRUE(cell.status.ok());
        }
    }
}

// ---------------------------------------------------------------------------
// Fuzz-entry regression replay over the checked-in seed corpus
// ---------------------------------------------------------------------------

namespace
{

std::vector<std::string>
corpusFiles(const std::string &subdir)
{
    const std::string dir =
        std::string(ASAP_SOURCE_DIR) + "/fuzz/corpus/" + subdir;
    std::vector<std::string> paths;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        if (entry.is_regular_file())
            paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    return paths;
}

/** Replay @p bytes and truncated/flipped variants through @p entry:
 *  the "never crashes, never aborts" contract under gtest instead of
 *  libFuzzer. */
void
replayWithMutations(void (*entry)(const std::uint8_t *, std::size_t),
                    const std::string &bytes)
{
    const auto *data =
        reinterpret_cast<const std::uint8_t *>(bytes.data());
    entry(data, bytes.size());
    for (const std::size_t cut :
         {bytes.size() / 2, bytes.size() / 3, std::size_t{7},
          std::size_t{1}, std::size_t{0}})
        entry(data, std::min(cut, bytes.size()));
    // Deterministic single-byte corruptions sprinkled over the file.
    std::string mutated = bytes;
    for (std::size_t i = 0; i < mutated.size(); i += 11)
        mutated[i] = static_cast<char>(mutated[i] ^ 0x5a);
    entry(reinterpret_cast<const std::uint8_t *>(mutated.data()),
          mutated.size());
}

} // namespace

TEST(FuzzCorpus, TraceFileSeedsReplayClean)
{
    const auto paths = corpusFiles("trace_file");
    ASSERT_GE(paths.size(), 4u) << "seed corpus missing; run "
                                   "make_fuzz_corpus";
    for (const std::string &path : paths) {
        SCOPED_TRACE(path);
        replayWithMutations(fuzzTraceFileOneInput, readAll(path));
    }
}

TEST(FuzzCorpus, ImporterSeedsReplayClean)
{
    const auto paths = corpusFiles("importers");
    ASSERT_GE(paths.size(), 4u) << "seed corpus missing; run "
                                   "make_fuzz_corpus";
    for (const std::string &path : paths) {
        SCOPED_TRACE(path);
        replayWithMutations(fuzzImportersOneInput, readAll(path));
    }
}
