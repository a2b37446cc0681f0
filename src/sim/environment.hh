/**
 * @file
 * Experiment environment: a (System, Workload) pair built once per
 * (workload, virtualization, PT-placement) combination and shared by
 * every machine configuration measured on it.
 *
 * Building an environment is the expensive part of an experiment — it
 * prefaults the entire resident set, populating page tables through the
 * buddy/ASAP allocators. Machines (caches, TLBs, PWCs, engines) are
 * cheap and constructed per measured configuration.
 */

#ifndef ASAP_SIM_ENVIRONMENT_HH
#define ASAP_SIM_ENVIRONMENT_HH

#include <memory>

#include "sim/machine.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
#include "workloads/suite.hh"

namespace asap
{

struct EnvironmentOptions
{
    // NOTE: cells in src/exp/sweep.cc share Environments keyed by
    // environmentKey(), which enumerates every field here and in
    // WorkloadSpec. Adding a field? Add it to environmentKey() too,
    // or cells differing only in it will silently share state.
    bool virtualized = false;
    bool asapPlacement = false;
    bool hostHugePages = false;
    unsigned ptLevels = numPtLevels;
    unsigned hostPtLevels = numPtLevels;
    std::vector<unsigned> asapLevels = {1, 2};
    double holeFraction = 0.0;
    double pinnedProb = 0.0;
    std::uint64_t seed = 1;
};

/** Merge a workload spec and environment options into a SystemConfig. */
SystemConfig makeSystemConfig(const WorkloadSpec &spec,
                              const EnvironmentOptions &options);

class Environment
{
  public:
    Environment(const WorkloadSpec &spec,
                const EnvironmentOptions &options = {});

    System &system() { return *system_; }
    Workload &workload() { return *workload_; }
    const WorkloadSpec &spec() const { return spec_; }
    const EnvironmentOptions &options() const { return options_; }

    /**
     * Build a machine and run the workload on this environment. An
     * optional trace sink and an optional timeline (src/obs/) are
     * attached for the duration of the run; passing nullptr (the
     * default) keeps the zero-cost-when-off path.
     */
    RunStats run(const MachineConfig &machineConfig,
                 const RunConfig &runConfig,
                 obs::TraceSink *sink = nullptr,
                 obs::Timeline *timeline = nullptr);

  private:
    WorkloadSpec spec_;
    EnvironmentOptions options_;
    std::unique_ptr<System> system_;
    std::unique_ptr<Workload> workload_;
    /** Wall-clock cost of building this environment (System +
     *  prefault); copied into each run's self-profile. */
    double setupSeconds_ = 0.0;
};

/** Paper-default machine configuration (Table 5) with the given ASAP
 *  settings. */
MachineConfig makeMachineConfig(AsapConfig appAsap = AsapConfig::off(),
                                AsapConfig hostAsap = AsapConfig::off());

/** Default run configuration; honours ASAP_QUICK for faster runs. */
RunConfig defaultRunConfig(bool colocation = false,
                           std::uint64_t seed = 7);

} // namespace asap

#endif // ASAP_SIM_ENVIRONMENT_HH
