/**
 * @file
 * The simulator benchmark: four workloads driven through the library's
 * public API, each timed as repetitions that build and simulate from
 * scratch, plus a separate traced run that attributes host time to the
 * layers by timing public per-access calls from outside the library.
 * See README.md in this directory for the workloads, the metrics and
 * why host-time metrics take the fastest repetition.
 */

#ifndef SIMBENCH_SIMBENCH_HH
#define SIMBENCH_SIMBENCH_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/environment.hh"

namespace simbench
{

using Counters = std::vector<std::pair<std::string, std::uint64_t>>;

/** One named metric as printed: value and unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};
using Metrics = std::vector<Metric>;

/** Host timings and check outcome of one repetition. */
struct Rep
{
    /** Environment builds: System construction, workload setup and
     *  prefault (and the trace open where the input is a trace). */
    double setupSec = 0.0;
    /** Machine build + warmup + measure; the sweep's wall time on
     *  fig8_sweep. */
    double simSec = 0.0;
    /** One complete result from nothing. */
    double wallSec = 0.0;
    /** fig8_sweep only: Σ cell wall seconds (machine build + run) and
     *  the sweep's process CPU seconds. */
    double serialSimSec = 0.0;
    double cpuSec = 0.0;
    /** Simulated accesses (warmup + measure, all tenants or cells). */
    std::uint64_t accesses = 0;
    /** Failed correctness checks; empty when the repetition is good. */
    std::vector<std::string> failures;
};

/** Host time of one instrumented call site, from sampled calls. */
struct CallClock
{
    double sampledTicks = 0.0;
    std::uint64_t sampled = 0;
    std::uint64_t calls = 0;

    double
    meanTicks() const
    {
        return sampled == 0 ? 0.0 : sampledTicks / double(sampled);
    }
};

class Tracer;

/** What a traced pass measured, summed over passes. */
struct LayerTimes
{
    CallClock hit, miss, data, corunner;
    /** Every Workload::nextBatch call is timed (one per batch). */
    double genTicks = 0.0;
    std::uint64_t genAccesses = 0;
    bool traceInput = false;
    /** Every OsDynamics::applyDue call is timed. */
    double dynTicks = 0.0;
    std::uint64_t dynEvents = 0;
    /** Host ticks inside the traced access loops. */
    double loopTicks = 0.0;

    double systemBuildSec = 0.0;
    double prefaultSec = 0.0;
    std::uint64_t prefaultPages = 0;
    double traceOpenSec = 0.0;
    double machineBuildSec = 0.0;
    std::uint64_t machines = 0;
    /** Machine builds + traced loops (the untraced simSec analogue). */
    double simSec = 0.0;
    /** The fastest traced pass's simSec. */
    double bestPassSimSec = 0.0;
    unsigned passes = 0;
};

/**
 * One benchmark workload. prepare() makes the inputs and the untimed
 * reference result every later repetition is checked against; rep() is
 * one timed repetition; traced() one traced pass.
 */
class Bench
{
  public:
    virtual ~Bench() = default;

    virtual void prepare(std::vector<std::string> &failures) = 0;
    virtual Rep rep() = 0;
    /** One traced pass, adding into @p times; @return check failures
     *  (the traced counters against the untraced reference). */
    virtual std::vector<std::string> traced(Tracer &tracer,
                                            LayerTimes &times) = 0;
    /** Deterministic per-layer counts of the reference result. */
    virtual void counts(Metrics &out) const = 0;
    /** Workload-specific per-layer metrics measured after the traced
     *  passes: sim.trace_overhead against the untraced reps @p reps,
     *  plus mc.loop_overhead or exp.* where they apply. */
    virtual void extras(const std::vector<Rep> &reps,
                        const LayerTimes &times, Metrics &out,
                        std::vector<std::string> &failures) = 0;
};

/** Build a workload by name; nullptr when unknown. @p tiny selects the
 *  self-check sizes; @p scratch is a writable directory. */
std::unique_ptr<Bench> makeBench(const std::string &name,
                                 std::uint64_t seed, bool tiny,
                                 const std::string &scratch);

/** The workload names, in the order the self-check runs them. */
const std::vector<std::string> &benchNames();

/** Monotonic wall-clock seconds. */
double wallNow();

// -- traced run (traced.cc) ---------------------------------------------

/**
 * Span recorder and sampled call timer. Ticks come from the TSC where
 * the host has one (lfence-serialized rdtsc) and from steady_clock
 * otherwise; ticksToNs() is calibrated against steady_clock over the
 * recorder's lifetime. Spans are kept in memory (capped) and written
 * as Chrome trace-event JSON by writeChromeJson().
 */
class Tracer
{
  public:
    /** @p samplePeriod: time one access in this many. */
    explicit Tracer(unsigned samplePeriod);

    static std::uint64_t tick();

    unsigned samplePeriod() const { return samplePeriod_; }
    /** Mean cost of an empty tick()-to-tick() pair, in ticks. */
    double overheadTicks() const { return overheadTicks_; }
    double ticksToNs(double ticks) const;

    /** Record a span; fine-grained spans (per call) stop being kept
     *  once the cap is reached, coarse ones (per phase) always are. */
    void span(const char *name, std::uint64_t start, std::uint64_t end,
              bool fine = false);

    bool writeChromeJson(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        std::uint64_t start, end;
    };

    unsigned samplePeriod_;
    double overheadTicks_ = 0.0;
    std::uint64_t tick0_;
    double wall0_;
    std::vector<Span> spans_;
    std::size_t fineSpans_ = 0;
};

/** Where a traced run's addresses come from. */
enum class Input
{
    Generator,
    Trace
};

/**
 * Simulator::runPhase's plain (non-pipelined) loop rebuilt from public
 * calls — Workload::reset/nextBatch, Machine::translate/dataAccess/
 * corunnerAccess, OsDynamics::applyDue/gapUntilNext — with sampled
 * timers around each. Returns RunStats assembled exactly as
 * Simulator::run assembles them, so the counters compare equal to an
 * untraced run of the same configuration.
 */
asap::RunStats tracedRun(asap::System &system, asap::Machine &machine,
                         asap::Workload &workload,
                         const asap::RunConfig &config, Input input,
                         Tracer &tracer, LayerTimes &times);

/** System + workload setup built from public calls with the build and
 *  prefault phases timed apart (the Environment constructor's steps). */
struct BuiltSystem
{
    std::unique_ptr<asap::System> system;
    std::unique_ptr<asap::Workload> workload;
};
BuiltSystem buildTraced(const asap::WorkloadSpec &spec,
                        const asap::EnvironmentOptions &options,
                        Tracer &tracer, LayerTimes &times);

/** A Machine built with its constructor timed. */
std::unique_ptr<asap::Machine> machineTraced(asap::System &system,
                                             const asap::MachineConfig &cfg,
                                             Tracer &tracer,
                                             LayerTimes &times);

} // namespace simbench

#endif // SIMBENCH_SIMBENCH_HH
