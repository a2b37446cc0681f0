/**
 * @file
 * simbench: the repository's benchmark program.
 *
 *   simbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *            [--scratch DIR] [--trace-out FILE]
 *   simbench --self-check [--scratch DIR]
 *
 * --trace 0 times repetitions for S seconds and reports the end-to-end
 * metrics; --trace 1 runs the traced split and reports the per-layer
 * metrics. The last stdout line is one JSON object: correct, attempted,
 * failed, metrics. --self-check runs every workload at tiny sizes
 * through every correctness check and the traced counter match, and
 * exits non-zero if any fails.
 */

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <linux/perf_event.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "simbench.hh"

using namespace simbench;

namespace
{

/** Every per-layer metric, printed for every workload (0 where the
 *  layer does no work). */
const std::vector<std::pair<const char *, const char *>> perLayer = {
    {"workloads.gen_ns_per_acc", "ns"},
    {"trace.decode_ns_per_acc", "ns"},
    {"trace.open_s", "s"},
    {"tlb.hit_ns", "ns"},
    {"walk.miss_ns", "ns"},
    {"mem.data_ns", "ns"},
    {"mem.corunner_ns", "ns"},
    {"dyn.apply_us_per_event", "us"},
    {"mc.loop_overhead", "x"},
    {"os.system_build_s", "s"},
    {"os.prefault_ns_per_page", "ns"},
    {"sim.machine_build_ms", "ms"},
    {"exp.parallel_eff", "ratio"},
    {"exp.cpu_s", "s"},
    {"exp.setup_share", "ratio"},
    {"sim.trace_overhead", "x"},
    {"sim.unattributed_share", "ratio"},
    {"host.rep_spread", "x"},
    {"tlb.l1_miss_pka", "1/kacc"},
    {"tlb.l2_miss_pka", "1/kacc"},
    {"walk.pwc_app_hit_ratio", "ratio"},
    {"walk.pwc_host_hit_ratio", "ratio"},
    {"walk.sim_cycles_avg", "cycles"},
    {"asap.issue_ratio", "ratio"},
    {"asap.issued_per_walk", "ratio"},
    {"mem.l1d_miss_pka", "1/kacc"},
    {"mem.llc_miss_pka", "1/kacc"},
    {"mshr.late_ratio", "ratio"},
    {"mshr.drop_ratio", "ratio"},
    {"dyn.events", "count"},
    {"dyn.tlb_invalidated", "count"},
    {"dyn.pt_nodes_freed", "count"},
    {"mc.switches", "count"},
    {"mc.ipis", "count"},
    {"mc.ipi_cycle_share", "ratio"},
    {"os.page_faults", "count"},
    {"buddy.frag_permille", "permille"},
    {"exp.cells", "count"},
    {"exp.cell_attempts", "count"},
};

/** Traced runs time one access in this many. */
constexpr unsigned samplePeriod = 16;

struct Host
{
    unsigned nproc = 0;
    std::string cpuModel;
    bool pmu = false;
};

Host
hostFacts()
{
    Host host;
    host.nproc = std::thread::hardware_concurrency();
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                host.cpuModel = line.substr(colon + 2);
            break;
        }
    }
    // A PMU is usable when a hardware instruction counter opens.
    perf_event_attr attr{};
    attr.type = PERF_TYPE_HARDWARE;
    attr.size = sizeof(attr);
    attr.config = PERF_COUNT_HW_INSTRUCTIONS;
    attr.disabled = 1;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    const long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
    if (fd >= 0) {
        host.pmu = true;
        close(static_cast<int>(fd));
    }
    return host;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<double>
field(const std::vector<Rep> &reps, double Rep::*member)
{
    std::vector<double> out;
    for (const Rep &r : reps)
        out.push_back(r.*member);
    return out;
}

/** Median repetition over fastest: how much the host's contention
 *  slowed a typical repetition. */
double
repSpread(const std::vector<Rep> &reps)
{
    const std::vector<double> walls = field(reps, &Rep::wallSec);
    if (walls.empty())
        return 0.0;
    return median(walls) / *std::min_element(walls.begin(), walls.end());
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/** Counts operations and reports failed checks on stderr. */
struct Ledger
{
    unsigned attempted = 0;
    unsigned failed = 0;

    void
    record(const std::string &what, const std::vector<std::string> &failures)
    {
        ++attempted;
        if (failures.empty())
            return;
        ++failed;
        for (const std::string &f : failures)
            std::fprintf(stderr, "simbench: FAILED %s: %s\n", what.c_str(),
                         f.c_str());
    }
};

/** Repetitions until @p seconds have passed (at least @p minReps);
 *  failed ones are counted and dropped. */
std::vector<Rep>
repeat(Bench &bench, double seconds, unsigned minReps, Ledger &ledger)
{
    std::vector<Rep> good;
    const double deadline = wallNow() + seconds;
    for (unsigned n = 0; n < minReps || wallNow() < deadline; ++n) {
        Rep r = bench.rep();
        std::fprintf(stderr, "simbench: rep %u setup %.4f s sim %.4f s "
                             "wall %.4f s\n",
                     n, r.setupSec, r.simSec, r.wallSec);
        ledger.record("repetition", r.failures);
        if (r.failures.empty())
            good.push_back(std::move(r));
    }
    return good;
}

Metrics
endToEnd(const std::vector<Rep> &reps)
{
    double rate = 0.0, setup = 0.0, wall = 0.0;
    for (const Rep &r : reps) {
        rate = std::max(rate, double(r.accesses) / r.simSec / 1e6);
        setup = setup == 0.0 ? r.setupSec : std::min(setup, r.setupSec);
        wall = wall == 0.0 ? r.wallSec : std::min(wall, r.wallSec);
    }
    return {{"sim_rate_macc_s", rate, "Macc/s"},
            {"setup_s", setup, "s"},
            {"wall_s", wall, "s"},
            {"peak_rss_mb", peakRssMb(), "MB"}};
}

/** The host-time split of the traced passes. */
void
layerMetrics(const Tracer &tracer, const LayerTimes &t, Metrics &out)
{
    const auto ns = [&tracer](double ticks) {
        return tracer.ticksToNs(ticks);
    };
    const auto per = [](double total, double count) {
        return count == 0.0 ? 0.0 : total / count;
    };
    const double gen = per(ns(t.genTicks), double(t.genAccesses));
    const double passes = std::max(1u, t.passes);
    const auto attributed = [](const CallClock &c) {
        return c.meanTicks() * double(c.calls);
    };
    const double inCalls = t.genTicks + t.dynTicks + attributed(t.hit) +
                           attributed(t.miss) + attributed(t.data) +
                           attributed(t.corunner);
    const Metrics m = {
        {"workloads.gen_ns_per_acc", t.traceInput ? 0.0 : gen, "ns"},
        {"trace.decode_ns_per_acc", t.traceInput ? gen : 0.0, "ns"},
        {"trace.open_s", t.traceOpenSec / passes, "s"},
        {"tlb.hit_ns", ns(t.hit.meanTicks()), "ns"},
        {"walk.miss_ns", ns(t.miss.meanTicks()), "ns"},
        {"mem.data_ns", ns(t.data.meanTicks()), "ns"},
        {"mem.corunner_ns", ns(t.corunner.meanTicks()), "ns"},
        {"dyn.apply_us_per_event",
         per(ns(t.dynTicks), double(t.dynEvents)) / 1e3, "us"},
        {"os.system_build_s", t.systemBuildSec / passes, "s"},
        {"os.prefault_ns_per_page",
         per(t.prefaultSec * 1e9, double(t.prefaultPages)), "ns"},
        {"sim.machine_build_ms",
         per(t.machineBuildSec * 1e3, double(t.machines)), "ms"},
        {"sim.unattributed_share",
         t.loopTicks == 0.0 ? 0.0 : 1.0 - inCalls / t.loopTicks, "ratio"},
    };
    out.insert(out.end(), m.begin(), m.end());
}

/** The traced split: untraced repetitions for a quarter of the time
 *  (host.rep_spread and the overhead baseline), traced passes for the
 *  rest, then the workload's own extras. */
Metrics
tracedMode(Bench &bench, double seconds, const std::string &traceOut,
           Ledger &ledger, std::vector<Rep> &reps)
{
    reps = repeat(bench, seconds / 4, 2, ledger);

    Tracer tracer(samplePeriod);
    LayerTimes times;
    // Passes of the sweep take seconds: start one only if it should
    // end before the deadline.
    const double deadline = wallNow() + seconds * 3 / 4;
    double pass = 0.0;
    do {
        const double start = wallNow();
        ledger.record("traced pass", bench.traced(tracer, times));
        pass = wallNow() - start;
    } while (wallNow() + pass < deadline);

    Metrics found;
    std::vector<std::string> failures;
    bench.extras(reps, times, found, failures);
    ledger.record("extras", failures);
    bench.counts(found);
    layerMetrics(tracer, times, found);
    found.push_back({"host.rep_spread", repSpread(reps), "x"});
    if (!traceOut.empty() && !tracer.writeChromeJson(traceOut))
        std::fprintf(stderr, "simbench: cannot write %s\n",
                     traceOut.c_str());

    Metrics out;
    for (const auto &[name, unit] : perLayer) {
        Metric metric{name, 0.0, unit};
        for (const Metric &m : found) {
            if (m.name == name)
                metric.value = m.value;
        }
        out.push_back(metric);
    }
    return out;
}

int
selfCheck(const std::string &scratch)
{
    bool ok = true;
    for (const std::string &name : benchNames()) {
        Ledger ledger;
        auto bench = makeBench(name, 1, true, scratch);
        std::vector<std::string> failures;
        bench->prepare(failures);
        ledger.record(name + " prepare", failures);
        std::vector<Rep> reps = repeat(*bench, 0.0, 2, ledger);
        Tracer tracer(4);
        LayerTimes times;
        ledger.record(name + " traced pass", bench->traced(tracer, times));
        Metrics metrics;
        failures.clear();
        bench->extras(reps, times, metrics, failures);
        ledger.record(name + " extras", failures);
        std::printf("self-check %-13s %u ops, %u failed\n", name.c_str(),
                    ledger.attempted, ledger.failed);
        ok = ok && ledger.failed == 0;
    }
    std::printf("self-check %s\n", ok ? "passed" : "FAILED");
    return ok ? 0 : 1;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--scratch DIR] [--trace-out FILE]\n"
                 "       %s --self-check [--scratch DIR]\n",
                 argv0, argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, scratch = ".", traceOut;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false, check = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--self-check") {
            check = true;
        } else if (arg == "--workload" && hasValue) {
            workload = argv[++i];
        } else if (arg == "--seed" && hasValue) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && hasValue) {
            seconds = std::atof(argv[++i]);
        } else if (arg == "--trace" && hasValue) {
            trace = std::strcmp(argv[++i], "0") != 0;
        } else if (arg == "--scratch" && hasValue) {
            scratch = argv[++i];
        } else if (arg == "--trace-out" && hasValue) {
            traceOut = argv[++i];
        } else {
            return usage(argv[0]);
        }
    }

    // Hermetic inputs: the benchmark pins its own sizes, seed and
    // worker count. ctest exports ASAP_QUICK=1, which would silently
    // shrink the workloads through applyQuickMode/defaultRunConfig.
    for (const char *var : {"ASAP_QUICK", "ASAP_JOBS", "ASAP_TIMELINE",
                            "ASAP_FAULT", "ASAP_CELL_TIMEOUT",
                            "ASAP_RESUME", "ASAP_CELL_RETRIES",
                            "ASAP_RETRY_BASE_MS", "ASAP_PROFILE",
                            "ASAP_PROGRESS"})
        unsetenv(var);
    setenv("ASAP_RESULTS_DIR", (scratch + "/results").c_str(), 1);

    if (check)
        return selfCheck(scratch);
    auto bench = makeBench(workload, seed, false, scratch);
    if (!bench)
        return usage(argv[0]);

    const Host host = hostFacts();
    Ledger ledger;
    std::vector<std::string> failures;
    bench->prepare(failures);
    ledger.record("reference", failures);

    std::vector<Rep> reps;
    Metrics metrics;
    if (trace) {
        metrics = tracedMode(*bench, seconds, traceOut, ledger, reps);
    } else {
        reps = repeat(*bench, seconds, 2, ledger);
        metrics = endToEnd(reps);
    }
    // Untraced repetitions: fastest and median, so contention shows.
    std::printf("%-28s %14s %14s\n", "repetitions", "fastest", "median");
    const std::pair<const char *, double Rep::*> columns[] = {
        {"  setup", &Rep::setupSec},
        {"  simulation", &Rep::simSec},
        {"  wall", &Rep::wallSec}};
    for (const auto &[label, member] : columns) {
        const std::vector<double> values = field(reps, member);
        std::printf("%-28s %14.6g %14.6g s\n", label,
                    values.empty()
                        ? 0.0
                        : *std::min_element(values.begin(), values.end()),
                    median(values));
    }
    for (const Metric &m : metrics)
        std::printf("%-28s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("host {\"nproc\": %u, \"cpu_model\": %s, \"pmu\": %s, "
                "\"rep_spread\": %.4f, \"reps\": %zu}\n",
                host.nproc, jsonString(host.cpuModel).c_str(),
                host.pmu ? "true" : "false", repSpread(reps), reps.size());

    std::string json = "{";
    for (const Metric &m : metrics) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        json += (json.size() > 1 ? ", " : "") + jsonString(m.name) +
                ": {\"value\": " + value +
                ", \"unit\": " + jsonString(m.unit) + "}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
                "\"metrics\": %s}}\n",
                ledger.failed == 0 ? "true" : "false", ledger.attempted,
                ledger.failed, json.c_str());
    return 0;
}
