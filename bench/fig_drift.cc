/**
 * @file
 * Drift curves under churn: the time-resolved companion to fig_churn.
 * End-of-run averages can hide a run that is steadily getting worse —
 * fragmentation accumulating in the buddy allocator, ASAP regions
 * losing backed slots to munmap/madvise, shootdown storms bunching the
 * walk-latency tail. This figure attaches an obs::Timeline to each
 * run (16 epochs over the measure phase) and reports three per-epoch
 * curves for mcf@tenants at increasing churn intensity, natively and
 * virtualized (P1+P2 in both):
 *
 *   fig_drift_walk_p99   interval walk-latency p99 (cycles)
 *   fig_drift_frag       buddy fragmentation score (permille of free
 *                        frames not usable at 2MB grain)
 *   fig_drift_survival   ASAP region contiguity (permille of region
 *                        slots still backed)
 *
 * A flat curve means the steady state the end-of-run figures report is
 * real; a sloped one tells you *when* the run degraded and which
 * resource is draining. `--quick` applies the standard quick-mode
 * scaling (same as ASAP_QUICK=1) for CI smoke runs.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <stdlib.h>

#include "common/logging.hh"
#include "exp/result_table.hh"
#include "obs/timeline.hh"
#include "sim/environment.hh"
#include "workloads/dynamic.hh"
#include "workloads/suite.hh"

using namespace asap;
using namespace asap::exp;

namespace
{

constexpr unsigned numEpochs = 16;

std::size_t
gaugeIndex(const obs::Timeline &timeline, const std::string &name)
{
    const std::vector<std::string> &names = timeline.gaugeNames();
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (names[i] == name)
            return i;
    }
    panic("fig_drift: timeline has no gauge '%s'", name.c_str());
}

std::vector<double>
gaugeCurve(const obs::Timeline &timeline, const std::string &name)
{
    const std::size_t index = gaugeIndex(timeline, name);
    std::vector<double> curve;
    curve.reserve(timeline.epochCount());
    for (std::size_t e = 0; e < timeline.epochCount(); ++e)
        curve.push_back(
            static_cast<double>(timeline.epoch(e).gauges[index]));
    return curve;
}

std::vector<double>
walkP99Curve(const obs::Timeline &timeline)
{
    std::vector<double> curve;
    curve.reserve(timeline.epochCount());
    for (std::size_t e = 0; e < timeline.epochCount(); ++e)
        curve.push_back(
            static_cast<double>(timeline.epoch(e).walkP99));
    return curve;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            setenv("ASAP_QUICK", "1", 1);
        } else {
            std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
            return 2;
        }
    }

    struct Intensity
    {
        const char *row;
        double intensity;   ///< 0 = static (no event stream)
    };
    const Intensity intensities[] = {
        {"static", 0.0}, {"low", 0.5}, {"mid", 1.0}, {"high", 2.0}};

    std::vector<std::string> epochColumns;
    for (unsigned e = 1; e <= numEpochs; ++e)
        epochColumns.push_back(strprintf("e%02u", e));

    ResultTable p99("Drift: interval walk-latency p99 per epoch "
                    "(cycles), P1+P2 under mcf@tenants",
                    epochColumns, "%8.0f");
    ResultTable frag("Drift: buddy fragmentation per epoch (permille "
                     "unusable at 2MB grain)",
                     epochColumns, "%8.0f");
    ResultTable survival("Drift: ASAP region contiguity per epoch "
                         "(permille of region slots backed)",
                         epochColumns, "%8.0f");

    double staticLastP99 = 0.0;
    double highLastP99 = 0.0;
    for (const bool virt : {false, true}) {
        for (const Intensity &level : intensities) {
            const RunConfig run = defaultRunConfig();
            WorkloadSpec spec = mcfSpec();
            // Same burst schedule as fig_churn: 16 bursts per run, one
            // per epoch, so each epoch sees one comparable event burst
            // regardless of quick-mode access counts.
            if (level.intensity > 0.0) {
                spec = withDynamics(
                    spec, "tenants", level.intensity,
                    (run.warmupAccesses + run.measureAccesses) / 16);
            }
            EnvironmentOptions env;
            env.virtualized = virt;
            env.asapPlacement = true;

            // One private Environment per cell — churn mutates the
            // System, and the timeline watches that mutation happen.
            Environment environment(spec, env);
            obs::Timeline timeline(run.measureAccesses / numEpochs);
            environment.run(makeMachineConfig(AsapConfig::p1p2()), run,
                            nullptr, &timeline);

            const std::string row =
                std::string(level.row) + (virt ? "/virt" : "");
            p99.addRow(row, walkP99Curve(timeline));
            frag.addRow(row,
                        gaugeCurve(timeline, "buddy.fragPermille"));
            survival.addRow(
                row, gaugeCurve(timeline, "asap.contigPermille"));
            if (!virt && level.intensity == 0.0)
                staticLastP99 = walkP99Curve(timeline).back();
            if (!virt && level.row == std::string("high"))
                highLastP99 = walkP99Curve(timeline).back();
        }
    }

    emit("fig_drift_walk_p99", p99);
    emit("fig_drift_frag", frag);
    emit("fig_drift_survival", survival);

    std::printf("\nFinal-epoch walk p99 (native): static %.0f vs high "
                "churn %.0f cycles — drift the averages cannot show\n",
                staticLastP99, highLastP99);
    return 0;
}
