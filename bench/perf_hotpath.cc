/**
 * @file
 * Simulator-throughput benchmark: wall-clock translations per second on
 * representative configurations. Unlike the figure benchmarks, this
 * measures the *simulator itself* — it is the repo's tracked perf
 * datapoint (BENCH_hotpath.json) and the regression gate for hot-path
 * work (the slab page table, the SetAssoc arrays, the flat MSHR file,
 * and the batched simulation loop).
 *
 * Usage:
 *   perf_hotpath [--quick] [--reps N] [--only CASE] [--baseline FILE]
 *                [--trace FILE]
 *
 * --quick     shrink footprints and access counts (CI mode; implies
 *             ASAP_QUICK=1 for the rest of the stack).
 * --reps N    timing repetitions per case; the best rep is reported
 *             (default 3, 2 in quick mode).
 * --only      run just the named case (profiling workflows).
 * --baseline  compare against a previously emitted BENCH_hotpath.json
 *             and exit non-zero if any case regresses by more than 20%.
 * --trace     run the single-case benchmarks from a recorded trace file
 *             (see tools/trace_record) instead of the built-in
 *             generator workload — replay decoding is cheaper than
 *             generation, and the workload regime is whatever was
 *             recorded, so compare only against baselines recorded from
 *             the same trace.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/asap_engine.hh"
#include "exp/json.hh"
#include "exp/result_table.hh"
#include "obs/profile.hh"
#include "sim/environment.hh"
#include "workloads/suite.hh"

using namespace asap;
using namespace asap::exp;

namespace
{

struct BenchCase
{
    std::string name;
    EnvironmentOptions env;
    MachineConfig machine;
    bool colocation = false;
};

/** The representative hot-path configurations, each gated by the floor
 *  baseline. */
std::vector<BenchCase>
benchCases()
{
    std::vector<BenchCase> cases;

    BenchCase native;
    native.name = "native";
    cases.push_back(native);

    BenchCase nativeAsap;
    nativeAsap.name = "native_asap";
    nativeAsap.env.asapPlacement = true;
    nativeAsap.machine = makeMachineConfig(AsapConfig::p1p2());
    cases.push_back(nativeAsap);

    BenchCase virt2d;
    virt2d.name = "virt_2d";
    virt2d.env.virtualized = true;
    cases.push_back(virt2d);

    BenchCase clustered;
    clustered.name = "clustered_l2";
    clustered.machine.tlb.clusteredL2 = true;
    cases.push_back(clustered);

    BenchCase coloc;
    coloc.name = "colocation";
    coloc.env.asapPlacement = true;
    coloc.machine = makeMachineConfig(AsapConfig::p1p2());
    coloc.colocation = true;
    cases.push_back(coloc);

    return cases;
}

struct CaseTiming
{
    std::string name;
    std::uint64_t accesses = 0;     ///< simulated accesses per rep
    double seconds = 0.0;           ///< best rep CPU time
    double accessesPerSec = 0.0;
    double avgWalkLatency = 0.0;    ///< sanity: model output, not speed
    /** The best rep's run self-profile (obs/profile.hh). */
    obs::SelfProfile profile;
};

/**
 * Per-process CPU time. Throughput is reported against CPU seconds,
 * not wall time: the benchmark is single-threaded, and on shared/cloud
 * hosts wall time includes scheduler steal that can swing results by
 * 30% between runs — useless for a regression gate.
 */
double
cpuSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

Json
toJson(const std::vector<CaseTiming> &timings, bool quick)
{
    Json doc = Json::object();
    doc.set("benchmark", "perf_hotpath");
    doc.set("metric", "simulated accesses per CPU second (best rep)");
    doc.set("quick", quick);
    Json cases = Json::array();
    for (const CaseTiming &t : timings) {
        Json c = Json::object();
        c.set("name", t.name);
        c.set("accesses", t.accesses);
        c.set("seconds", t.seconds);
        c.set("accessesPerSec", t.accessesPerSec);
        c.set("avgWalkLatency", t.avgWalkLatency);
        Json profile = Json::object();
        profile.set("envSetupSec", t.profile.envSetupSec);
        profile.set("warmupSec", t.profile.warmupSec);
        profile.set("measureSec", t.profile.measureSec);
        profile.set("wallSec", t.profile.wallSec);
        profile.set("accessesPerSec", t.profile.accessesPerSec);
        profile.set("peakRssBytes",
                    static_cast<double>(t.profile.peakRssBytes));
        c.set("profile", std::move(profile));
        cases.push(std::move(c));
    }
    doc.set("cases", std::move(cases));
    return doc;
}

/** @return exit status: non-zero when a case regressed >20%. */
int
checkBaseline(const std::vector<CaseTiming> &timings,
              const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "perf_hotpath: cannot open baseline %s\n",
                     path.c_str());
        return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const auto doc = Json::parse(buffer.str());
    const Json *cases = doc ? doc->find("cases") : nullptr;
    if (!cases) {
        std::fprintf(stderr, "perf_hotpath: malformed baseline %s\n",
                     path.c_str());
        return 2;
    }

    int status = 0;
    std::printf("\nBaseline comparison (%s):\n", path.c_str());
    for (const CaseTiming &t : timings) {
        const Json *match = nullptr;
        for (const Json &c : cases->items()) {
            const Json *name = c.find("name");
            if (name && name->asString() == t.name) {
                match = &c;
                break;
            }
        }
        if (!match) {
            std::printf("  %-14s (not in baseline, skipped)\n",
                        t.name.c_str());
            continue;
        }
        const Json *rate = match->find("accessesPerSec");
        const double base = rate ? rate->asNumber() : 0.0;
        const double ratio = base > 0.0 ? t.accessesPerSec / base : 1.0;
        const bool regressed = ratio < 0.8;
        std::printf("  %-14s %12.0f acc/s vs %12.0f baseline (%+.1f%%)%s\n",
                    t.name.c_str(), t.accessesPerSec, base,
                    100.0 * (ratio - 1.0),
                    regressed ? "  REGRESSION" : "");
        if (regressed)
            status = 1;
    }
    if (status != 0)
        std::fprintf(stderr,
                     "perf_hotpath: throughput regressed >20%% vs %s\n",
                     path.c_str());
    return status;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    unsigned reps = 0;
    std::string baselinePath;
    std::string only;
    std::string tracePath;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
            reps = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
            only = argv[++i];
        } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            tracePath = argv[++i];
        } else if (std::strcmp(argv[i], "--baseline") == 0 &&
                   i + 1 < argc) {
            baselinePath = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--quick] [--reps N] [--only CASE] "
                         "[--baseline FILE] [--trace FILE]\n",
                         argv[0]);
            return 2;
        }
    }
    const char *quickEnv = std::getenv("ASAP_QUICK");
    if (quickEnv && quickEnv[0] != '\0' && quickEnv[0] != '0')
        quick = true;
    // The workload must stay in the paper's translation-bound regime in
    // both modes, so quick scaling is applied here explicitly — not via
    // ASAP_QUICK, whose applyQuickMode() would shrink the access window
    // back under the STLB reach and idle the walk path being measured.
    unsetenv("ASAP_QUICK");
    if (reps == 0)
        reps = quick ? 2 : 3;

    // One mid-sized workload pinned to the paper's translation-bound
    // regime (Figure 2): the warm window is far larger than the
    // 1536-entry L2 STLB reach, so a fig8-like share of accesses take
    // the full walk path — the hot path this benchmark tracks. Note
    // scaledDown() is deliberately not used: it shrinks the window back
    // under the STLB reach and the walk path goes quiet.
    WorkloadSpec spec;
    if (!tracePath.empty()) {
        // Replay a recorded trace through the identical measurement
        // loop. The regime (and hence absolute numbers) is whatever was
        // recorded; the checked-in floor baseline only applies to the
        // built-in generator workload.
        const auto loaded = specByName("trace:" + tracePath);
        spec = *loaded;
    } else {
        spec = mcfSpec();
        spec.name = "hotpath";
        spec.residentPages = quick ? 75'000 : 150'000;
        spec.windowPages = 8'000;
        spec.churnOps = quick ? 10'000 : 40'000;
    }

    std::vector<CaseTiming> timings;
    for (const BenchCase &bc : benchCases()) {
        if (!only.empty() && bc.name != only)
            continue;
        Environment env(spec, bc.env);
        RunConfig run = defaultRunConfig(bc.colocation);
        if (quick) {
            run.warmupAccesses = quickWarmupAccesses;
            run.measureAccesses = quickMeasureAccesses;
        }
        const std::uint64_t accesses =
            run.warmupAccesses + run.measureAccesses;

        CaseTiming timing;
        timing.name = bc.name;
        timing.accesses = accesses;
        timing.seconds = 1e300;
        for (unsigned rep = 0; rep < reps; ++rep) {
            const double start = cpuSeconds();
            const RunStats stats = env.run(bc.machine, run);
            const double secs = cpuSeconds() - start;
            if (secs < timing.seconds) {
                timing.seconds = secs;
                timing.avgWalkLatency = stats.avgWalkLatency();
                timing.profile = stats.profile;
            }
        }
        timing.accessesPerSec =
            static_cast<double>(accesses) / timing.seconds;
        timings.push_back(timing);
        std::printf("%-14s %9lu accesses  %8.3f s  %12.0f acc/s  "
                    "(walk %.1f cyc)\n",
                    timing.name.c_str(),
                    static_cast<unsigned long>(accesses), timing.seconds,
                    timing.accessesPerSec, timing.avgWalkLatency);
    }

    writeResultArtifact("BENCH_hotpath.json",
                        toJson(timings, quick).dump(2) + "\n");

    if (!baselinePath.empty())
        return checkBaseline(timings, baselinePath);
    return 0;
}
