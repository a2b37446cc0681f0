/**
 * @file
 * The experiment-orchestration core: describe a paper experiment as a
 * cross-product of (workload x environment x machine x run) cells, then
 * execute the independent cells in parallel and collect structured
 * results.
 *
 * Parallelism model: building an Environment (prefaulting the resident
 * set through the buddy/ASAP allocators) is the expensive, stateful
 * part of an experiment, and a run may mutate its Environment (demand
 * faults, workload cursors). Cells are therefore grouped by their
 * (workload spec, environment options) signature; each group owns one
 * Environment and executes its cells serially in declaration order.
 * Up to ASAP_JOBS worker threads claim groups in turn, and every cell
 * attempt runs on the worker that claimed its group. This makes
 * aggregated results bit-identical regardless of thread count
 * (ASAP_JOBS=1 and ASAP_JOBS=N agree exactly). Under ASAP_CELL_TIMEOUT
 * an attempt runs under a ScopedDeadline (common/status.hh) that its
 * access streams check once per batch, so an overrunning cell stops
 * on its worker and frees its Environment.
 */

#ifndef ASAP_EXP_SWEEP_HH
#define ASAP_EXP_SWEEP_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.hh"
#include "exp/json.hh"
#include "sim/environment.hh"

namespace asap::exp
{

struct CellResult;

/** One experiment cell: a labelled (workload, env, machine, run). */
struct Cell
{
    std::string row;      ///< table row label (usually workload name)
    std::string column;   ///< table column label (scenario/config)

    WorkloadSpec spec;
    EnvironmentOptions env;
    MachineConfig machine;
    RunConfig run;

    /** Run the simulator for this cell (false: probe-only cells that
     *  inspect the constructed Environment, e.g. Table 2). */
    bool measure = true;

    /** Optional inspector run by the cell's attempt after the
     *  (optional) simulation; fills CellResult::extra from Environment
     *  state. */
    std::function<void(Environment &, CellResult &)> probe;
};

/** Measured outcome of one cell. */
struct CellResult
{
    std::string row;
    std::string column;
    bool measured = false;
    RunStats stats;
    /** Probe outputs (e.g. VMA counts), keyed by metric name. */
    std::map<std::string, double> extra;

    /** OK for a completed cell; the failure otherwise (the cell is an
     *  *error cell*: recorded in artifacts, stats all zero). */
    Status status;
    /** Execution attempts this cell took (0 = never ran, e.g. the
     *  sweep was interrupted before reaching it; >1 = retried). */
    unsigned attempts = 0;
    /** Restored from the journal by ASAP_RESUME rather than executed.
     *  Not emitted in artifacts (resume must stay byte-identical). */
    bool resumed = false;
};

/**
 * A named experiment: an ordered list of cells. The name doubles as
 * the stem for emitted result files.
 */
class SweepSpec
{
  public:
    /**
     * @param baseSeed when non-zero, the runner overrides each cell's
     * RunConfig seed with a deterministic per-cell derivation
     * (mix64(baseSeed ^ cell index)), decorrelating cells while keeping
     * every run reproducible. Zero keeps the seeds the cells carry.
     */
    explicit SweepSpec(std::string name, std::uint64_t baseSeed = 0)
        : name_(std::move(name)), baseSeed_(baseSeed)
    {}

    /** Append a measured cell. */
    void add(const WorkloadSpec &spec, const EnvironmentOptions &env,
             const MachineConfig &machine, const RunConfig &run,
             std::string row, std::string column);

    /** Append a probe-only cell (no simulation). */
    void addProbe(const WorkloadSpec &spec,
                  const EnvironmentOptions &env, std::string row,
                  std::string column,
                  std::function<void(Environment &, CellResult &)> probe);

    const std::string &name() const { return name_; }
    std::uint64_t baseSeed() const { return baseSeed_; }
    const std::vector<Cell> &cells() const { return cells_; }

  private:
    std::string name_;
    std::uint64_t baseSeed_;
    std::vector<Cell> cells_;
};

/** The figures' most common metric: a cell's average walk latency. */
inline double
avgWalkLatencyOf(const CellResult &cell)
{
    return cell.stats.avgWalkLatency();
}

/** All cell results of a sweep, queryable by (row, column) label. */
class ResultSet
{
  public:
    using Metric = std::function<double(const CellResult &)>;

    explicit ResultSet(std::vector<CellResult> cells)
        : cells_(std::move(cells))
    {}

    const std::vector<CellResult> &cells() const { return cells_; }

    /** The cell labelled (row, column); panics when absent. */
    const CellResult &cell(const std::string &row,
                           const std::string &column) const;

    const RunStats &
    stats(const std::string &row, const std::string &column) const
    {
        return cell(row, column).stats;
    }

    /** Probe output @p key of cell (row, column); panics when absent. */
    double extra(const std::string &row, const std::string &column,
                 const std::string &key) const;

    /** @p metric across @p columns of one row (table-row helper). */
    std::vector<double> rowValues(const std::string &row,
                                  const std::vector<std::string> &columns,
                                  const Metric &metric
                                  = avgWalkLatencyOf) const;

    /** Distinct row labels in first-appearance order. */
    std::vector<std::string> rowLabels() const;

    /** Raw per-cell statistics (one line per cell). @p withProfile
     *  adds each cell's wall-clock self-profile — nondeterministic, so
     *  only ASAP_PROFILE=1 artifacts ask for it; the default form is
     *  byte-identical across ASAP_JOBS settings. */
    std::string toCsv() const;
    Json toJson(bool withProfile = false) const;

  private:
    std::vector<CellResult> cells_;
};

/**
 * Executes sweeps. The worker count comes from the constructor
 * argument, or (when 0) from ASAP_JOBS when that is a positive integer,
 * else from the hardware concurrency.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(unsigned jobs = 0) : jobs_(jobs) {}

    ResultSet run(const SweepSpec &spec) const;

  private:
    unsigned jobs_;
};

/**
 * Write the raw per-cell results as <dir>/<name>_cells.{csv,json}
 * (same directory rules as emit()). Nothing goes to stdout.
 */
void emitCells(const std::string &name, const ResultSet &results);

} // namespace asap::exp

#endif // ASAP_EXP_SWEEP_HH
