/**
 * @file
 * Capture a workload to a binary trace file (see src/workloads/trace.hh
 * for the format). The trace then runs anywhere a workload name does:
 *
 *   trace_record mcf mcf.asaptrace --accesses 750000
 *   perf_hotpath --trace mcf.asaptrace
 *   ... specByName("trace:mcf.asaptrace") in any sweep ...
 *
 * The recorded stream is exactly what Simulator::run would draw from
 * the generator with the same seed, so a replay over the same access
 * count reproduces the live run's RunStats bit-for-bit. The file is a
 * chunked, compressed ASAPTRC2 container; trace_convert re-chunks or
 * samples it.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <sys/stat.h>

#include "common/status.hh"
#include "sim/environment.hh"
#include "workloads/suite.hh"
#include "workloads/trace.hh"

using namespace asap;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s <workload> <out.asaptrace> [options]\n"
        "\n"
        "  <workload>      a suite workload name (mcf, canneal, bfs,\n"
        "                  pagerank, mc80, mc400, redis), optionally\n"
        "                  with an OS-dynamics profile (mcf@tenants,\n"
        "                  mc80@server)\n"
        "  --seed N        stream seed (default 7, the RunConfig default)\n"
        "  --accesses N    addresses to record (default: the default\n"
        "                  RunConfig's warmup+measure count)\n"
        "  --scale N       record the workload scaled down by N\n"
        "                  (suite.cc scaledDown; 1 = full size)\n"
        "  --quick         CI mode: the standard quick-mode workload\n"
        "                  scaling (exactly what ASAP_QUICK=1 applies,\n"
        "                  never both) and the quick-run access count\n"
        "                  (150k, the perf_hotpath --quick run length)\n"
        "\n"
        "ASAP_QUICK=1 applies the standard quick-mode scaling, matching\n"
        "what an Environment would run (and shrinking the default\n"
        "access count the same way).\n",
        argv0);
    return 2;
}

/** The real tool; main() below maps StatusError to exit(1). */
int
run(int argc, char **argv)
{
    if (argc < 3)
        return usage(argv[0]);
    const std::string name = argv[1];
    const std::string path = argv[2];
    std::uint64_t seed = 7;
    std::uint64_t accesses = 0;
    unsigned scale = 1;
    bool quick = false;
    for (int i = 3; i < argc; ++i) {
        if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            seed = std::strtoull(argv[++i], nullptr, 0);
        } else if (std::strcmp(argv[i], "--accesses") == 0 &&
                   i + 1 < argc) {
            accesses = std::strtoull(argv[++i], nullptr, 0);
        } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
            scale = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else {
            return usage(argv[0]);
        }
    }

    const auto spec = specByName(name);
    if (!spec) {
        std::fprintf(stderr, "trace_record: unknown workload '%s'\n",
                     name.c_str());
        return 2;
    }
    if (!spec->tracePath.empty()) {
        std::fprintf(stderr,
                     "trace_record: '%s' is already a trace\n",
                     name.c_str());
        return 2;
    }
    // Match what a quick-mode Environment would simulate: one
    // application of the standard scaling, whether requested by flag
    // or by ASAP_QUICK (never stacked), plus any explicit --scale.
    const WorkloadSpec shrunk =
        quick ? scaledDown(*spec, quickScaleDivisor)
              : applyQuickMode(*spec);
    const WorkloadSpec recorded = scaledDown(shrunk, scale);
    if (accesses == 0) {
        if (quick) {
            // The perf_hotpath --quick run length.
            accesses = quickWarmupAccesses + quickMeasureAccesses;
        } else {
            const RunConfig run = defaultRunConfig();
            accesses = run.warmupAccesses + run.measureAccesses;
        }
    }

    recordTrace(recorded, path, seed, accesses);

    struct stat st;
    const std::uint64_t fileBytes =
        ::stat(path.c_str(), &st) == 0
            ? static_cast<std::uint64_t>(st.st_size)
            : 0;
    const WorkloadSpec check = traceSpec(path);
    std::printf("%s: recorded %llu accesses of %s (seed %llu, "
                "%llu resident pages)\n"
                "%s: %llu bytes, %.2f bytes/access\n",
                path.c_str(),
                static_cast<unsigned long long>(accesses),
                check.name.c_str(),
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(check.residentPages),
                path.c_str(),
                static_cast<unsigned long long>(fileBytes),
                static_cast<double>(fileBytes) /
                    static_cast<double>(accesses));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Recording/writing errors are recoverable StatusErrors in the
    // library; a CLI turns them back into the classic exit(1) UX.
    try {
        return run(argc, argv);
    } catch (const StatusError &error) {
        std::fprintf(stderr, "trace_record: %s\n", error.what());
        return 1;
    }
}
