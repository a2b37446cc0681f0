#include "exp/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <system_error>
#include <thread>

#include "common/fault_inject.hh"
#include "common/logging.hh"
#include "exp/journal.hh"
#include "exp/result_table.hh"
#include "obs/timeline.hh"
#include "trace/trace_file.hh"

namespace asap::exp
{

void
SweepSpec::add(const WorkloadSpec &spec, const EnvironmentOptions &env,
               const MachineConfig &machine, const RunConfig &run,
               std::string row, std::string column)
{
    Cell cell;
    cell.row = std::move(row);
    cell.column = std::move(column);
    cell.spec = spec;
    cell.env = env;
    cell.machine = machine;
    cell.run = run;
    cells_.push_back(std::move(cell));
}

void
SweepSpec::addProbe(const WorkloadSpec &spec,
                    const EnvironmentOptions &env, std::string row,
                    std::string column,
                    std::function<void(Environment &, CellResult &)> probe)
{
    Cell cell;
    cell.row = std::move(row);
    cell.column = std::move(column);
    cell.spec = spec;
    cell.env = env;
    cell.measure = false;
    cell.probe = std::move(probe);
    cells_.push_back(std::move(cell));
}

// ---------------------------------------------------------------------------
// ResultSet
// ---------------------------------------------------------------------------

const CellResult &
ResultSet::cell(const std::string &row, const std::string &column) const
{
    for (const CellResult &result : cells_) {
        if (result.row == row && result.column == column)
            return result;
    }
    panic("no sweep cell (%s, %s)", row.c_str(), column.c_str());
}

double
ResultSet::extra(const std::string &row, const std::string &column,
                 const std::string &key) const
{
    const CellResult &result = cell(row, column);
    const auto it = result.extra.find(key);
    panic_if(it == result.extra.end(), "cell (%s, %s) has no extra '%s'",
             row.c_str(), column.c_str(), key.c_str());
    return it->second;
}

std::vector<double>
ResultSet::rowValues(const std::string &row,
                     const std::vector<std::string> &columns,
                     const Metric &metric) const
{
    std::vector<double> values;
    values.reserve(columns.size());
    for (const std::string &column : columns)
        values.push_back(metric(cell(row, column)));
    return values;
}

std::vector<std::string>
ResultSet::rowLabels() const
{
    std::vector<std::string> labels;
    for (const CellResult &result : cells_) {
        bool seen = false;
        for (const std::string &label : labels)
            seen = seen || label == result.row;
        if (!seen)
            labels.push_back(result.row);
    }
    return labels;
}

namespace
{

/** The scalar statistics every cell emits, in column order. */
const std::vector<std::pair<const char *,
                            double (*)(const CellResult &)>> &
cellStatColumns()
{
    using C = const CellResult &;
    static const std::vector<std::pair<const char *, double (*)(C)>>
        columns = {
            {"accesses", [](C c) { return double(c.stats.accesses); }},
            {"tlbL1Hits", [](C c) { return double(c.stats.tlbL1Hits); }},
            {"tlbL2Hits", [](C c) { return double(c.stats.tlbL2Hits); }},
            {"tlbMisses", [](C c) { return double(c.stats.tlbMisses); }},
            {"faults", [](C c) { return double(c.stats.faults); }},
            {"walks", [](C c) { return double(c.stats.walkLatency.count()); }},
            {"avgWalkLatency", [](C c) { return c.stats.avgWalkLatency(); }},
            {"minWalkLatency", [](C c) { return double(c.stats.walkLatency.min()); }},
            {"maxWalkLatency", [](C c) { return double(c.stats.walkLatency.max()); }},
            {"mpka", [](C c) { return c.stats.mpka(); }},
            {"l2MissRatio", [](C c) { return c.stats.l2MissRatio(); }},
            {"walkCycleFraction", [](C c) { return c.stats.walkCycleFraction(); }},
            {"totalCycles", [](C c) { return double(c.stats.totalCycles); }},
            {"walkCycles", [](C c) { return double(c.stats.walkCycles); }},
            {"dataCycles", [](C c) { return double(c.stats.dataCycles); }},
            {"computeCycles", [](C c) { return double(c.stats.computeCycles); }},
            {"asapTriggers", [](C c) { return double(c.stats.appAsap.triggers); }},
            {"asapRangeHits", [](C c) { return double(c.stats.appAsap.rangeHits); }},
            {"asapAttempted", [](C c) { return double(c.stats.appAsap.attempted); }},
            {"asapIssued", [](C c) { return double(c.stats.appAsap.issued); }},
            {"hostAsapIssued", [](C c) { return double(c.stats.hostAsap.issued); }},
            // Walk-latency distribution (obs::Histogram; deterministic
            // bucket upper bounds, thread-count-invariant).
            {"walkLatencyP50", [](C c) { return double(c.stats.walkHist.p50()); }},
            {"walkLatencyP90", [](C c) { return double(c.stats.walkHist.p90()); }},
            {"walkLatencyP99", [](C c) { return double(c.stats.walkHist.p99()); }},
            {"walkLatencyP999", [](C c) { return double(c.stats.walkHist.p999()); }},
            {"dataLatencyP50", [](C c) { return double(c.stats.dataHist.p50()); }},
            {"dataLatencyP99", [](C c) { return double(c.stats.dataHist.p99()); }},
            // The dyn* and component counters that used to be
            // hand-plumbed here now flow through RunStats::counters
            // (obs::Registry) — see counterKeys()/counterOf below.
        };
    return columns;
}

/** Union of counter names across cells, in first-cell registration
 *  order (every measured cell registers the same machine+system+dyn
 *  set, so this is just "the first measured cell's order"). */
std::vector<std::string>
counterKeys(const std::vector<CellResult> &cells)
{
    std::vector<std::string> keys;
    std::set<std::string> seen;
    for (const CellResult &cell : cells) {
        for (const auto &[key, value] : cell.stats.counters) {
            if (seen.insert(key).second)
                keys.push_back(key);
        }
    }
    return keys;
}

/** The named counter of a cell, or -1 when the cell lacks it (e.g. a
 *  native cell has no host-dimension structures). */
double
counterOf(const CellResult &cell, const std::string &key)
{
    for (const auto &[name, value] : cell.stats.counters) {
        if (name == key)
            return static_cast<double>(value);
    }
    return -1.0;
}

std::vector<std::string>
sortedExtraKeys(const std::vector<CellResult> &cells)
{
    std::set<std::string> keys;
    for (const CellResult &cell : cells) {
        for (const auto &[key, value] : cell.extra)
            keys.insert(key);
    }
    return {keys.begin(), keys.end()};
}

/** The status column value: "OK", or the failure's code and message
 *  with CSV-hostile characters folded to ';' so one cell stays one
 *  field on one line. */
std::string
statusField(const Status &status)
{
    if (status.ok())
        return "OK";
    std::string text = status.toString();
    for (char &c : text) {
        if (c == ',' || c == '"' || c == '\n' || c == '\r')
            c = ';';
    }
    return text;
}

} // namespace

std::string
ResultSet::toCsv() const
{
    const auto extraKeys = sortedExtraKeys(cells_);
    const auto ctrKeys = counterKeys(cells_);
    std::string out = "row,column,measured,status";
    for (const auto &[name, metric] : cellStatColumns())
        out += std::string(",") + name;
    for (const std::string &key : ctrKeys)
        out += "," + key;
    for (const std::string &key : extraKeys)
        out += "," + key;
    out += '\n';
    for (const CellResult &cell : cells_) {
        out += cell.row + "," + cell.column + "," +
               (cell.measured ? "1" : "0") + "," + statusField(cell.status);
        for (const auto &[name, metric] : cellStatColumns())
            out += "," + Json::numberToString(cell.measured ? metric(cell)
                                                            : 0.0);
        for (const std::string &key : ctrKeys) {
            const double value =
                cell.measured ? counterOf(cell, key) : -1.0;
            out += "," + (value < 0.0 ? std::string()
                                      : Json::numberToString(value));
        }
        for (const std::string &key : extraKeys) {
            const auto it = cell.extra.find(key);
            out += "," + (it == cell.extra.end()
                              ? std::string()
                              : Json::numberToString(it->second));
        }
        out += '\n';
    }
    return out;
}

Json
ResultSet::toJson(bool withProfile) const
{
    Json cells = Json::array();
    for (const CellResult &cell : cells_) {
        Json entry = Json::object();
        entry.set("row", cell.row);
        entry.set("column", cell.column);
        entry.set("measured", cell.measured);
        entry.set("status", cell.status.ok() ? std::string("OK")
                                             : cell.status.toString());
        entry.set("attempts", static_cast<double>(cell.attempts));
        if (cell.measured) {
            Json stats = Json::object();
            for (const auto &[name, metric] : cellStatColumns())
                stats.set(name, metric(cell));
            entry.set("stats", std::move(stats));

            if (!cell.stats.counters.empty()) {
                Json counters = Json::object();
                for (const auto &[name, value] : cell.stats.counters)
                    counters.set(name, static_cast<double>(value));
                entry.set("counters", std::move(counters));
            }

            // Wall-clock self-profile: nondeterministic, so only on
            // request (ASAP_PROFILE=1 artifacts) — the default form
            // stays byte-identical across ASAP_JOBS settings.
            if (withProfile) {
                const obs::SelfProfile &p = cell.stats.profile;
                Json profile = Json::object();
                profile.set("envSetupSec", p.envSetupSec);
                profile.set("warmupSec", p.warmupSec);
                profile.set("measureSec", p.measureSec);
                profile.set("teardownSec", p.teardownSec);
                profile.set("wallSec", p.wallSec);
                profile.set("accessesPerSec", p.accessesPerSec);
                profile.set("peakRssBytes",
                            static_cast<double>(p.peakRssBytes));
                entry.set("profile", std::move(profile));
            }

            Json levels = Json::object();
            for (unsigned level = 1; level <= 5; ++level) {
                const LevelDistribution &dist = cell.stats.levelDist[level];
                if (dist.total() == 0)
                    continue;
                Json fractions = Json::object();
                for (std::size_t i = 0; i < numMemLevels; ++i) {
                    const auto memLevel = static_cast<MemLevel>(i);
                    fractions.set(memLevelName(memLevel),
                                  dist.fraction(memLevel));
                }
                levels.set(strprintf("PL%u", level), std::move(fractions));
            }
            if (!levels.members().empty())
                entry.set("levelDist", std::move(levels));
        }
        if (!cell.extra.empty()) {
            Json extra = Json::object();
            for (const auto &[key, value] : cell.extra)
                extra.set(key, value);
            entry.set("extra", std::move(extra));
        }
        cells.push(std::move(entry));
    }
    Json json = Json::object();
    json.set("cells", std::move(cells));
    return json;
}

// ---------------------------------------------------------------------------
// SweepRunner
// ---------------------------------------------------------------------------

namespace
{

/** Canonical signature of the Environment a cell needs: every field of
 *  the workload spec and the environment options. Cells with equal keys
 *  share one Environment (and one group task). */
std::string
environmentKey(const WorkloadSpec &spec, const EnvironmentOptions &env)
{
    std::string levels;
    for (const unsigned level : env.asapLevels)
        levels += strprintf("%u.", level);
    return strprintf(
        "%s|t%s|%g|%lu|%u|%u|%u|%g|%g|%g|%lu|%g|%u|%g|%lu|%lu|%lu|%lu|%u"
        "|d%s|dp%lu|di%g"
        "|v%d|a%d|h%d|p%u|q%u|L%s|hf%g|pp%g|s%lu|i%u",
        spec.name.c_str(), spec.tracePath.c_str(), spec.paperGb,
        spec.residentPages, spec.dataVmas,
        spec.smallVmas, spec.cyclesPerAccess, spec.seqFraction,
        spec.nearFraction, spec.windowFraction, spec.windowPages,
        spec.zipfTheta, spec.linesPerPage, spec.burstContinueProb,
        spec.machineMemBytes, spec.guestMemBytes, spec.churnOps,
        spec.guestChurnOps, spec.churnMaxOrder,
        spec.dynProfile.c_str(), spec.dynPeriodAccesses,
        spec.dynIntensity, env.virtualized ? 1 : 0,
        env.asapPlacement ? 1 : 0, env.hostHugePages ? 1 : 0,
        env.ptLevels, env.hostPtLevels, levels.c_str(), env.holeFraction,
        env.pinnedProb, env.seed, env.instance);
}

/**
 * Does running this spec mutate its Environment beyond the benign
 * demand-fault/cursor churn sharing tolerates? Dynamic (OS-event)
 * runs munmap VMAs, free frames and tear down ASAP regions, so cells
 * carrying an event stream must never share an Environment — each
 * gets a private instance regardless of EnvironmentOptions::instance.
 */
bool
runMutatesEnvironment(const WorkloadSpec &spec)
{
    if (!spec.dynProfile.empty())
        return true;
    if (spec.tracePath.empty())
        return false;
    // A replayed trace mutates iff it carries an event-op chunk. The
    // header probe is an mmap + fixed-size parse, once per path.
    static std::map<std::string, bool> cache;
    static std::mutex mutex;
    std::lock_guard<std::mutex> lock(mutex);
    auto it = cache.find(spec.tracePath);
    if (it == cache.end()) {
        bool mutates;
        try {
            mutates = TraceFile(spec.tracePath).hasEventOps();
        } catch (const StatusError &) {
            // Unreadable/corrupt trace: privatize, so the load failure
            // surfaces as that cell's own error cell instead of taking
            // down whatever group it would have joined.
            mutates = true;
        }
        it = cache.emplace(spec.tracePath, mutates).first;
    }
    return it->second;
}

std::string
groupLabel(const WorkloadSpec &spec, const EnvironmentOptions &env)
{
    std::string label = spec.name;
    if (!spec.dynProfile.empty())
        label += "/" + spec.dynProfile;
    if (env.virtualized)
        label += "/virt";
    if (env.asapPlacement)
        label += "/asap";
    if (env.hostHugePages)
        label += "/2MB";
    if (env.ptLevels != numPtLevels)
        label += strprintf("/%uL", env.ptLevels);
    if (env.holeFraction > 0.0)
        label += strprintf("/holes%.0f%%", 100.0 * env.holeFraction);
    return label;
}

/** Worker count requested by the environment: ASAP_JOBS if set to a
 *  positive integer, otherwise std::thread::hardware_concurrency()
 *  (at least 1). */
unsigned
jobsFromEnv()
{
    if (const char *env = std::getenv("ASAP_JOBS")) {
        char *end = nullptr;
        const long jobs = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && jobs > 0)
            return static_cast<unsigned>(jobs);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

/** Fault-isolation policy, re-read from the environment on every run()
 *  so tests can flip the knobs between sweeps. */
struct SweepPolicy
{
    unsigned maxAttempts = 3;   ///< 1 + ASAP_CELL_RETRIES (default 2)
    unsigned retryBaseMs = 100; ///< ASAP_RETRY_BASE_MS; doubles per retry
    unsigned timeoutSec = 0;    ///< ASAP_CELL_TIMEOUT; 0 disables
    bool resume = false;        ///< ASAP_RESUME
};

SweepPolicy
policyFromEnv()
{
    SweepPolicy policy;
    if (const char *env = std::getenv("ASAP_CELL_RETRIES"))
        policy.maxAttempts =
            1 + static_cast<unsigned>(std::strtoul(env, nullptr, 10));
    if (const char *env = std::getenv("ASAP_RETRY_BASE_MS"))
        policy.retryBaseMs =
            static_cast<unsigned>(std::strtoul(env, nullptr, 10));
    if (const char *env = std::getenv("ASAP_CELL_TIMEOUT"))
        policy.timeoutSec =
            static_cast<unsigned>(std::strtoul(env, nullptr, 10));
    if (const char *env = std::getenv("ASAP_RESUME"))
        policy.resume = env[0] != '\0' && env[0] != '0';
    return policy;
}

/** Set by the SIGINT/SIGTERM handler installed around journaled
 *  sweeps; group loops stop between cells when it goes nonzero. */
volatile std::sig_atomic_t stopSignal = 0;

extern "C" void
onStopSignal(int sig)
{
    stopSignal = sig;
}

/** The identity a journal record must match to be replayed: the full
 *  environment signature plus the cell's labels, mode, and derived
 *  seed. (Machine/run config changes that keep these equal are not
 *  detected — rename the sweep or drop the journal when re-tuning.) */
std::uint64_t
cellKey(const Cell &cell, std::uint64_t seed)
{
    return fnv1a64(environmentKey(cell.spec, cell.env) + "|" + cell.row +
                   "|" + cell.column +
                   strprintf("|%llu|%c",
                             static_cast<unsigned long long>(seed),
                             cell.measure ? 'm' : 'p'));
}

/** Opt-in per-cell timeline artifacts (ASAP_TIMELINE=N): N > 1 is the
 *  epoch length in measured accesses, N = 1 (or any other truthy
 *  value) means measure/32 like run_inspect's default. The timelines
 *  are *extra* files beside the sweep's CSV/JSON, never part of them,
 *  so the byte-identical-artifacts guarantee across ASAP_JOBS holds:
 *  each cell's timeline depends only on its own deterministic run. */
std::uint64_t
timelineEpochAccesses(std::uint64_t measureAccesses)
{
    // Read per cell attempt (cold path) rather than cached: tests
    // toggle the gate between sweeps within one process.
    const char *env = std::getenv("ASAP_TIMELINE");
    if (!env || env[0] == '\0' || env[0] == '0')
        return 0;
    const std::uint64_t value = std::strtoull(env, nullptr, 0);
    if (value > 1)
        return value;
    const std::uint64_t epoch = measureAccesses / 32;
    return epoch ? epoch : 1;
}

/** Cell labels become filename fragments; anything shell- or
 *  path-hostile ('/', '@', spaces) flattens to '-'. */
std::string
fileSafe(const std::string &label)
{
    std::string out = label;
    for (char &c : out) {
        const bool keep = (c >= 'a' && c <= 'z') ||
                          (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '_' ||
                          c == '-' || c == '.';
        if (!keep)
            c = '-';
    }
    return out;
}

/** Best-effort write of one cell's timeline artifact into the results
 *  directory. Failures (including injected timeline-write faults)
 *  warn and return: a timeline is telemetry, never a reason to fail —
 *  or retry — the cell that produced it. */
void
writeCellTimeline(const std::string &sweep, const Cell &cell,
                  const obs::Timeline &timeline)
{
    const std::string dir = resultsDir();
    if (dir.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        warn("cannot create results dir %s: %s", dir.c_str(),
             ec.message().c_str());
        return;
    }
    const std::string path = dir + "/" + fileSafe(sweep) + "_timeline_" +
                             fileSafe(cell.row) + "_" +
                             fileSafe(cell.column) + ".jsonl";
    const Status status = timeline.writeJsonl(path);
    if (!status.ok()) {
        warn("timeline artifact %s failed: %s", path.c_str(),
             status.toString().c_str());
    }
}

/** What one execution attempt of a cell produces. A timed attempt's
 *  thread shares it with the runner, so an abandoned attempt keeps it
 *  alive and never writes into anything the runner still uses. */
struct Attempt
{
    CellResult result;
    /** The cell's epoch timeline (ASAP_TIMELINE only); the runner
     *  writes it once the attempt has succeeded. */
    std::unique_ptr<obs::Timeline> timeline;
    /** Set by the runner when it abandons the attempt. */
    std::atomic<bool> cancelled{false};
};

/**
 * One guarded execution attempt for one cell. Everything it touches is
 * owned through shared_ptr (a private copy of the Cell, the Attempt,
 * the group's environment slot), so a timed-out attempt cannot race
 * the runner. Returns OK with @p attempt filled, or the failure
 * (StatusError payloads, bad_alloc as RESOURCE_EXHAUSTED, anything
 * else as INTERNAL — see runToStatus).
 */
Status
runCellAttempt(const std::shared_ptr<const Cell> &cell, std::uint64_t seed,
               const std::shared_ptr<std::shared_ptr<Environment>> &envSlot,
               const std::shared_ptr<Attempt> &attempt)
{
    return runToStatus([&] {
        fault::maybeFail("cell");
        if (fault::shouldFail("cell-hang")) {
            // Deterministic "stuck cell": bounded so an un-timed-out
            // run still terminates, cooperative so a timed-out zombie
            // exits as soon as the runner abandons it.
            for (unsigned i = 0; i < 600 && !attempt->cancelled.load();
                 ++i)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(100));
        }
        // An abandoned attempt stops before it builds anything.
        if (attempt->cancelled.load())
            return;
        // Lazy so an Environment construction failure (corrupt trace,
        // injected allocation failure) is charged to the cell being
        // attempted, not to the whole group up front.
        if (!*envSlot)
            *envSlot = std::make_shared<Environment>(cell->spec,
                                                     cell->env);
        if (cell->measure) {
            RunConfig run = cell->run;
            run.seed = seed;
            const std::uint64_t epochLen =
                timelineEpochAccesses(run.measureAccesses);
            if (epochLen != 0)
                attempt->timeline =
                    std::make_unique<obs::Timeline>(epochLen);
            attempt->result.stats = (*envSlot)->run(
                cell->machine, run, nullptr, attempt->timeline.get());
            attempt->result.measured = true;
        }
        if (cell->probe)
            cell->probe(**envSlot, attempt->result);
    });
}

/**
 * Run one attempt and return its status. With no @p timeoutSec the
 * attempt runs on the calling worker. Otherwise it runs on a thread of
 * its own that the worker waits on for at most @p timeoutSec seconds;
 * one that overruns is flagged in @p cancelled and detached, and the
 * wait returns DEADLINE_EXCEEDED. A host out of threads fails the
 * attempt as UNAVAILABLE (retried), not the sweep.
 *
 * Measured dead end: a thread for every attempt, timeout or not, raised
 * simbench fig8_sweep's peak RSS from 222 to 268 MB (20 s runs, 2
 * workers, 4-vCPU host), past the benchmark's 20% bound; a reused
 * attempt thread per worker read 267 MB and a thread per group 272 MB.
 * Each extra allocating thread takes its own glibc malloc arena, and
 * every arena that once held an Environment keeps ~32 MB of freed
 * memory (MALLOC_ARENA_MAX=1 brings all of them to 189 MB).
 */
Status
runAttempt(const std::function<Status()> &body, unsigned timeoutSec,
           std::atomic<bool> &cancelled)
{
    if (timeoutSec == 0)
        return body();
    auto task = std::make_shared<std::packaged_task<Status()>>(body);
    std::future<Status> future = task->get_future();
    std::thread thread;
    try {
        if (fault::shouldFail("attempt-thread"))
            throw std::system_error(std::make_error_code(
                std::errc::resource_unavailable_try_again));
        thread = std::thread([task] { (*task)(); });
    } catch (const std::system_error &e) {
        return Status::unavailable(
            strprintf("cannot start a cell attempt thread: %s", e.what()));
    }
    if (future.wait_for(std::chrono::seconds(timeoutSec)) ==
        std::future_status::timeout) {
        cancelled.store(true);
        thread.detach();
        return Status::deadlineExceeded(strprintf(
            "cell exceeded ASAP_CELL_TIMEOUT=%us", timeoutSec));
    }
    thread.join();
    return future.get();
}

} // namespace

ResultSet
SweepRunner::run(const SweepSpec &spec) const
{
    const std::vector<Cell> &cells = spec.cells();
    std::vector<CellResult> results(cells.size());
    const SweepPolicy policy = policyFromEnv();

    // Per-cell seeds, derived deterministically from the cell index so
    // they do not depend on grouping or scheduling.
    std::vector<std::uint64_t> seeds(cells.size());
    std::vector<std::uint64_t> keys(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        seeds[i] = spec.baseSeed() != 0
                       ? mix64(spec.baseSeed() ^ (i + 1))
                       : cells[i].run.seed;
        keys[i] = cellKey(cells[i], seeds[i]);
        results[i].row = cells[i].row;
        results[i].column = cells[i].column;
    }

    // Group cells sharing an Environment; groups keep declaration
    // order. Cells whose run mutates the Environment (OS-event
    // workloads) are force-privatized — one group per cell — so
    // column comparisons never run against a churned System.
    std::map<std::string, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        std::string key = environmentKey(cells[i].spec, cells[i].env);
        if (runMutatesEnvironment(cells[i].spec))
            key += strprintf("#cell%zu", i);
        groups[key].push_back(i);
    }

    // Crash-safe journal (fsync'd per cell). Resume granularity is the
    // *group*: cells in a group share an Environment mutated by their
    // predecessors, so replaying a partial group would hand later
    // cells a fresher Environment than the uninterrupted run did.
    // Only groups with every cell journaled are skipped; partial
    // groups recompute (deterministically re-producing the journaled
    // prefix), keeping resumed artifacts byte-identical.
    CellJournal journal;
    const bool journaled =
        journal.open(spec.name(), cells.size(), policy.resume);
    std::size_t resumedCells = 0;
    std::vector<const std::vector<std::size_t> *> pending;
    for (const auto &group : groups) {
        const std::vector<std::size_t> &indices = group.second;
        bool complete = policy.resume;
        for (const std::size_t index : indices) {
            complete = complete &&
                       journal.find(index, keys[index]) != nullptr;
        }
        if (complete) {
            for (const std::size_t index : indices) {
                results[index] = *journal.find(index, keys[index]);
                ++resumedCells;
            }
            continue;
        }
        pending.push_back(&indices);
    }

    // While the journal can make an interrupted sweep resumable, turn
    // SIGINT/SIGTERM into "finish the cells in flight, flush, exit"
    // instead of the default instant kill.
    struct sigaction oldInt {};
    struct sigaction oldTerm {};
    if (journaled) {
        stopSignal = 0;
        struct sigaction action {};
        action.sa_handler = onStopSignal;
        sigaction(SIGINT, &action, &oldInt);
        sigaction(SIGTERM, &action, &oldTerm);
    }

    std::atomic<std::size_t> nextGroup{0};
    std::atomic<unsigned> completed{0};
    std::atomic<unsigned> failedCells{0};
    std::atomic<unsigned> retriedCells{0};

    // Run one group's cells in declaration order on one Environment.
    const auto runGroup = [&](const std::vector<std::size_t> &indices) {
        // The group's Environment, double-indirected: the outer
        // pointer is what a timed-out (zombie) attempt keeps; the
        // runner swaps in a fresh slot after any failure so nothing
        // ever shares a half-mutated or still-in-use Environment.
        auto envSlot = std::make_shared<std::shared_ptr<Environment>>();
        for (const std::size_t index : indices) {
            if (stopSignal)
                return;
            const Cell &cell = cells[index];
            CellResult &result = results[index];
            const auto cellCopy = std::make_shared<const Cell>(cell);
            for (unsigned attempt = 1;; ++attempt) {
                auto scratch = std::make_shared<Attempt>();
                scratch->result.row = cell.row;
                scratch->result.column = cell.column;
                const Status status = runAttempt(
                    [cellCopy, seed = seeds[index], envSlot, scratch] {
                        return runCellAttempt(cellCopy, seed, envSlot,
                                              scratch);
                    },
                    policy.timeoutSec, scratch->cancelled);
                if (status.ok()) {
                    if (scratch->timeline)
                        writeCellTimeline(spec.name(), cell,
                                          *scratch->timeline);
                    scratch->result.attempts = attempt;
                    result = std::move(scratch->result);
                    break;
                }
                // Any failed attempt abandons the group's Environment:
                // a half-run (or still-hung) one is not a reproducible
                // starting state.
                envSlot = std::make_shared<std::shared_ptr<Environment>>();
                if (attempt >= policy.maxAttempts || !status.transient()) {
                    result.attempts = attempt;
                    result.status = status;
                    failedCells.fetch_add(1);
                    warn("sweep cell (%s, %s) failed after %u attempt%s: "
                         "%s",
                         cell.row.c_str(), cell.column.c_str(), attempt,
                         attempt == 1 ? "" : "s",
                         status.toString().c_str());
                    break;
                }
                retriedCells.fetch_add(1);
                const unsigned shift = attempt > 10 ? 10 : attempt - 1;
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    static_cast<std::uint64_t>(policy.retryBaseMs)
                    << shift));
            }
            journal.append(index, keys[index], result);
        }
        const Cell &first = cells[indices.front()];
        inform("[%u/%zu] %s done", completed.fetch_add(1) + 1,
               pending.size(), groupLabel(first.spec, first.env).c_str());
    };

    // Workers claim groups in order until none is left.
    const std::size_t workers = std::min<std::size_t>(
        jobs_ != 0 ? jobs_ : jobsFromEnv(), pending.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < workers; ++i) {
        threads.emplace_back([&] {
            for (std::size_t g = nextGroup++; g < pending.size();
                 g = nextGroup++)
                runGroup(*pending[g]);
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    if (journaled) {
        sigaction(SIGINT, &oldInt, nullptr);
        sigaction(SIGTERM, &oldTerm, nullptr);
        if (stopSignal) {
            const int sig = static_cast<int>(stopSignal);
            journal.close();
            warn("sweep %s interrupted by signal %d; journal flushed — "
                 "rerun with ASAP_RESUME=1 to continue",
                 spec.name().c_str(), sig);
            std::exit(128 + sig);
        }
        // A completed sweep's journal is rewritten in cell-index order:
        // mid-run it is append-on-completion (thread-schedule
        // dependent), and the results directory must stay byte-
        // identical across ASAP_JOBS values like the artifacts.
        journal.seal(keys, results);
    }

    const unsigned failed = failedCells.load();
    const unsigned retried = retriedCells.load();
    if (failed || retried || resumedCells) {
        warn("sweep %s: %u cell%s failed, %u retried, %zu restored "
             "from journal",
             spec.name().c_str(), failed, failed == 1 ? "" : "s",
             retried, resumedCells);
    }
    return ResultSet(std::move(results));
}

namespace {

/** Opt-in self-profile blocks in cell artifacts (ASAP_PROFILE=1).
 *  Wall-clock numbers vary run to run and with ASAP_JOBS, so keeping
 *  them out by default preserves the byte-identical-artifacts
 *  guarantee that the thread-count-invariance check relies on. */
bool
profileEnabled()
{
    static const bool enabled = [] {
        const char *env = std::getenv("ASAP_PROFILE");
        return env && env[0] != '\0' && env[0] != '0';
    }();
    return enabled;
}

} // namespace

void
emitCells(const std::string &name, const ResultSet &results)
{
    writeResultArtifact(name + "_cells.csv", results.toCsv());
    writeResultArtifact(name + "_cells.json",
                        results.toJson(profileEnabled()).dump(2) + "\n");
}

} // namespace asap::exp
