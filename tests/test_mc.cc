/**
 * @file
 * Multi-core machine model (src/mc): serial bit-identity on the
 * degenerate 1-core/1-tenant shape, scheduler determinism (including
 * across SweepRunner thread counts), the full-range-shootdown vs
 * Machine::flush differential, per-tenant/aggregate merge exactness,
 * and initiator attribution of IPI shootdown cost.
 */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "golden_scenarios.hh"
#include "common/logging.hh"
#include "exp/sweep.hh"
#include "mc/multicore.hh"
#include "obs/timeline.hh"
#include "obs/trace_sink.hh"
#include "sim/environment.hh"
#include "workloads/dynamic.hh"
#include "workloads/synthetic.hh"

using namespace asap;

namespace
{

/** One tenant's OS state + stream, built fresh and deterministically
 *  (bypassing Environment, like the golden scenarios). */
struct TenantHarness
{
    std::unique_ptr<System> system;
    std::unique_ptr<Workload> workload;
};

TenantHarness
makeTenant(const WorkloadSpec &spec, const EnvironmentOptions &env)
{
    TenantHarness tenant;
    tenant.system = std::make_unique<System>(makeSystemConfig(spec, env));
    tenant.workload = makeWorkload(spec);
    tenant.workload->setup(*tenant.system);
    return tenant;
}

/** Run a golden scenario through the mc model, 1 core / 1 tenant. */
mc::McResult
runScenarioMc(const golden::Scenario &scenario, std::uint64_t quantum)
{
    const WorkloadSpec spec = golden::goldenSpec();
    TenantHarness tenant = makeTenant(spec, scenario.env);
    mc::McConfig mcConfig;
    mcConfig.quantum = quantum;
    mc::MultiCoreSimulator sim(mcConfig, scenario.machine);
    sim.addTenant(*tenant.system, *tenant.workload);
    return sim.run(golden::goldenRunConfig(scenario.colocation));
}

} // namespace

// ---------------------------------------------------------------------------
// 1-core / 1-tenant bit-identity with the serial Simulator
// ---------------------------------------------------------------------------

TEST(McSerialIdentity, GoldenScenariosBitIdentical)
{
    for (const golden::Scenario &scenario : golden::goldenScenarios()) {
        SCOPED_TRACE(scenario.name);
        const RunStats serial = golden::runScenario(scenario);
        const mc::McResult result = runScenarioMc(scenario, 8192);
        const RunStats &agg = result.aggregate;

        golden::expectSameStats(serial, agg, "aggregate");

        // The per-tenant view of a 1-tenant run is the aggregate, but
        // for its counters: a tenant's list leaves out the core-shared
        // caches and TLBs and adds its mc.* IPI attribution.
        ASSERT_EQ(result.tenants.size(), 1u);
        RunStats tenant = result.tenants[0];
        tenant.counters = serial.counters;
        golden::expectSameStats(serial, tenant, "tenant 0");
    }
}

TEST(McSerialIdentity, QuantumSizeIsStatsNeutral)
{
    // Batch/quantum boundaries carry no per-access state, so any
    // quantum must reproduce the serial run bit-for-bit (an awkward
    // prime crosses the warmup/measure boundary mid-quantum).
    const golden::Scenario native = golden::goldenScenarios().front();
    const RunStats serial = golden::runScenario(native);
    const mc::McResult odd = runScenarioMc(native, 123);
    golden::expectSameStats(serial, odd.aggregate, "quantum 123");
}

TEST(McSerialIdentity, DynamicRunBitIdentical)
{
    // The shootdown path differs structurally (ShootdownTarget proxy
    // vs direct Machine), so pin a churn-heavy dynamic run too.
    const WorkloadSpec spec =
        withDynamics(golden::goldenSpec(), "tenants", 1.0, 3'000);
    const RunConfig run = golden::goldenRunConfig(false);

    TenantHarness serialTenant = makeTenant(spec, {});
    ASSERT_NE(serialTenant.workload->events(), nullptr);
    Machine machine(*serialTenant.system, MachineConfig{});
    Simulator simulator(*serialTenant.system, machine,
                        *serialTenant.workload);
    const RunStats serial = simulator.run(run);
    EXPECT_GT(serial.dyn.events, 0u);

    TenantHarness mcTenant = makeTenant(spec, {});
    mc::MultiCoreSimulator sim(mc::McConfig{}, MachineConfig{});
    sim.addTenant(*mcTenant.system, *mcTenant.workload);
    const mc::McResult result = sim.run(run);

    golden::expectSameStats(serial, result.aggregate, "aggregate");
}

// ---------------------------------------------------------------------------
// Scheduler determinism
// ---------------------------------------------------------------------------

namespace
{

mc::McResult
runMulti(unsigned cores, unsigned tenantCount, bool pcid,
         const WorkloadSpec &spec, const RunConfig &run)
{
    mc::McConfig mcConfig;
    mcConfig.cores = cores;
    mcConfig.pcid = pcid;
    mcConfig.quantum = 2048;
    mc::MultiCoreSimulator sim(mcConfig, MachineConfig{});
    std::vector<TenantHarness> tenants;
    for (unsigned t = 0; t < tenantCount; ++t) {
        tenants.push_back(makeTenant(spec, {}));
        sim.addTenant(*tenants.back().system,
                      *tenants.back().workload);
    }
    return sim.run(run);
}

} // namespace

TEST(McScheduler, DeterministicAcrossRepeatedRuns)
{
    const WorkloadSpec spec =
        withDynamics(golden::goldenSpec(), "tenants", 1.0, 3'000);
    RunConfig run = golden::goldenRunConfig(false);
    run.warmupAccesses = 2'000;
    run.measureAccesses = 8'000;

    const mc::McResult a = runMulti(2, 3, true, spec, run);
    const mc::McResult b = runMulti(2, 3, true, spec, run);

    golden::expectSameStats(a.aggregate, b.aggregate, "aggregate");
    EXPECT_EQ(a.slots, b.slots);
    EXPECT_EQ(a.maxCoreCycle, b.maxCoreCycle);
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (std::size_t t = 0; t < a.tenants.size(); ++t) {
        golden::expectSameStats(a.tenants[t], b.tenants[t],
                                strprintf("tenant %zu", t));
        EXPECT_EQ(a.tenantMc[t].shootdowns, b.tenantMc[t].shootdowns);
        EXPECT_EQ(a.tenantMc[t].ipisSent, b.tenantMc[t].ipisSent);
        EXPECT_EQ(a.tenantMc[t].ipiSendWaitCycles,
                  b.tenantMc[t].ipiSendWaitCycles);
        EXPECT_EQ(a.tenantMc[t].ipiRemoteCycles,
                  b.tenantMc[t].ipiRemoteCycles);
    }
    for (std::size_t c = 0; c < a.coreMc.size(); ++c) {
        EXPECT_EQ(a.coreMc[c].switches, b.coreMc[c].switches);
        EXPECT_EQ(a.coreMc[c].ipisReceived, b.coreMc[c].ipisReceived);
    }
}

TEST(McScheduler, SweepCsvIdenticalAcrossJobCounts)
{
    // The sweep layer runs mc probes like any other probe cell;
    // thread count must not leak into results (the ASAP_JOBS
    // invariant). Two tenant-count rows, mc run inside the probe.
    const auto makeSweep = [] {
        exp::SweepSpec sweep("mc_determinism");
        for (const unsigned tenantCount : {2u, 3u}) {
            WorkloadSpec spec = golden::goldenSpec();
            spec.name = strprintf("mc_t%u", tenantCount);
            sweep.addProbe(
                spec, {}, spec.name, "mc",
                [tenantCount](Environment &, exp::CellResult &cell) {
                    const WorkloadSpec tenantSpec = golden::goldenSpec();
                    RunConfig run = golden::goldenRunConfig(false);
                    run.warmupAccesses = 1'000;
                    run.measureAccesses = 4'000;
                    mc::McConfig mcConfig;
                    mcConfig.cores = 2;
                    mcConfig.quantum = 1024;
                    mc::MultiCoreSimulator sim(mcConfig,
                                               MachineConfig{});
                    std::vector<TenantHarness> tenants;
                    for (unsigned t = 0; t < tenantCount; ++t) {
                        tenants.push_back(makeTenant(tenantSpec, {}));
                        sim.addTenant(*tenants.back().system,
                                      *tenants.back().workload);
                    }
                    const mc::McResult result = sim.run(run);
                    cell.extra["aggAccesses"] = static_cast<double>(
                        result.aggregate.accesses);
                    cell.extra["aggWalkP99"] = static_cast<double>(
                        result.aggregate.walkHist.p99());
                    cell.extra["slots"] =
                        static_cast<double>(result.slots);
                    cell.extra["maxCoreCycle"] =
                        static_cast<double>(result.maxCoreCycle);
                });
        }
        return sweep;
    };

    const exp::ResultSet serial =
        exp::SweepRunner(1).run(makeSweep());
    const exp::ResultSet parallel =
        exp::SweepRunner(4).run(makeSweep());
    EXPECT_EQ(serial.toCsv(), parallel.toCsv());
    EXPECT_GT(serial.extra("mc_t2", "mc", "aggAccesses"), 0.0);
}

// ---------------------------------------------------------------------------
// Full-range shootdown vs Machine::flush differential
// ---------------------------------------------------------------------------

TEST(McShootdown, FullRangeShootdownEqualsFlush)
{
    struct Shape
    {
        unsigned cores, tenants;
        bool pcid;
        std::uint64_t seed;
    };
    const std::vector<Shape> shapes = {
        {2, 2, true, 7}, {3, 3, true, 11}, {4, 2, true, 13},
        {2, 2, false, 17},
    };
    for (const Shape &shape : shapes) {
        SCOPED_TRACE(strprintf("cores=%u tenants=%u pcid=%d seed=%lu",
                               shape.cores, shape.tenants,
                               shape.pcid ? 1 : 0, shape.seed));
        const WorkloadSpec spec = golden::goldenSpec();
        RunConfig run = golden::goldenRunConfig(false);
        run.warmupAccesses = 2'000;
        run.measureAccesses = 6'000;
        run.seed = shape.seed;

        mc::McConfig mcConfig;
        mcConfig.cores = shape.cores;
        mcConfig.pcid = shape.pcid;
        mcConfig.quantum = 1024;
        mc::MultiCoreSimulator sim(mcConfig, MachineConfig{});
        std::vector<TenantHarness> tenants;
        for (unsigned t = 0; t < shape.tenants; ++t) {
            tenants.push_back(makeTenant(spec, {}));
            sim.addTenant(*tenants.back().system,
                          *tenants.back().workload);
        }
        sim.run(run);

        // Pre-state: resident entries and lifetime lookup counters.
        std::uint64_t preTlbValid = 0, prePwcValid = 0;
        std::vector<std::uint64_t> preLookups;
        for (unsigned c = 0; c < shape.cores; ++c) {
            preTlbValid += sim.coreTlb(c).l1ValidEntries() +
                           sim.coreTlb(c).l2ValidEntries();
            preLookups.push_back(sim.coreTlb(c).lookups());
            for (unsigned t = 0; t < shape.tenants; ++t)
                prePwcValid +=
                    sim.machineOf(t, c).appPwc().validEntries();
        }
        EXPECT_GT(preTlbValid, 0u);

        Machine::InvalidateCounts total;
        for (unsigned t = 0; t < shape.tenants; ++t) {
            const Machine::InvalidateCounts counts =
                sim.shootdownAll(t);
            total.tlb += counts.tlb;
            total.pwc += counts.pwc;
        }

        // Machine::flush post-state: everything dropped, counters
        // kept. The drop counts must account for every resident entry
        // (PCID presence masks are exact supersets; without PCID,
        // stale PWC images on non-present cores are unreachable and
        // may legitimately survive).
        EXPECT_EQ(total.tlb, preTlbValid);
        if (shape.pcid)
            EXPECT_EQ(total.pwc, prePwcValid);
        else
            EXPECT_LE(total.pwc, prePwcValid);
        for (unsigned c = 0; c < shape.cores; ++c) {
            EXPECT_EQ(sim.coreTlb(c).l1ValidEntries(), 0u);
            EXPECT_EQ(sim.coreTlb(c).l2ValidEntries(), 0u);
            EXPECT_EQ(sim.coreTlb(c).lookups(), preLookups[c]);
            if (shape.pcid) {
                for (unsigned t = 0; t < shape.tenants; ++t) {
                    EXPECT_EQ(
                        sim.machineOf(t, c).appPwc().validEntries(),
                        0u);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Per-tenant stats merge exactly into the aggregate
// ---------------------------------------------------------------------------

TEST(McStats, TenantStatsSumToAggregate)
{
    const WorkloadSpec spec =
        withDynamics(golden::goldenSpec(), "tenants", 1.0, 3'000);
    RunConfig run = golden::goldenRunConfig(false);
    run.warmupAccesses = 2'000;
    run.measureAccesses = 8'000;

    const mc::McResult result = runMulti(2, 3, true, spec, run);

    RunStats merged;
    for (const RunStats &tenant : result.tenants)
        merged.merge(tenant);

    // The aggregate's counter list is assembled per structure (each
    // shared LLC and core once, plus mc.* telemetry), not merged from
    // the tenants' lists, so it is checked below on its own.
    RunStats agg = result.aggregate;
    agg.counters = merged.counters;
    golden::expectSameStats(merged, agg, "merged tenants");

    // The assembled aggregate counter list carries the mc.* telemetry
    // (multi-tenant shape) and its dyn slice equals the merged one.
    bool sawIpis = false;
    for (const auto &[name, value] : result.aggregate.counters) {
        if (name == "mc.ipisSent") {
            sawIpis = true;
            std::uint64_t sum = 0;
            for (const mc::TenantStats &t : result.tenantMc)
                sum += t.ipisSent;
            EXPECT_EQ(value, sum);
        }
        if (name == "dyn.events")
            EXPECT_EQ(value, merged.dyn.events);
    }
    EXPECT_TRUE(sawIpis);
}

// ---------------------------------------------------------------------------
// IPI cost: initiator attribution
// ---------------------------------------------------------------------------

TEST(McIpi, ShootdownCostLandsOnInitiatingTenant)
{
    // Tenant 0 churns (munmaps/madvise -> shootdowns); tenant 1 is a
    // static co-tenant. With 2 cores and rotation both tenants visit
    // both cores, so tenant 0's shootdowns must raise remote IPIs —
    // and every IPI cycle must be attributed to tenant 0, none to the
    // victim.
    const WorkloadSpec churny =
        withDynamics(golden::goldenSpec(), "tenants", 1.0, 2'000);
    const WorkloadSpec quiet = golden::goldenSpec();
    RunConfig run = golden::goldenRunConfig(false);
    run.warmupAccesses = 2'000;
    run.measureAccesses = 10'000;

    mc::McConfig mcConfig;
    mcConfig.cores = 2;
    mcConfig.quantum = 1024;
    mc::MultiCoreSimulator sim(mcConfig, MachineConfig{});
    TenantHarness t0 = makeTenant(churny, {});
    TenantHarness t1 = makeTenant(quiet, {});
    obs::TraceSink sink(1u << 16);
    sim.addTenant(*t0.system, *t0.workload);
    sim.addTenant(*t1.system, *t1.workload);
    sim.attachTraceSink(&sink);
    const mc::McResult result = sim.run(run);

    ASSERT_EQ(result.tenantMc.size(), 2u);
    EXPECT_GT(result.tenantMc[0].shootdowns, 0u);
    EXPECT_GT(result.tenantMc[0].ipisSent, 0u);
    EXPECT_GT(result.tenantMc[0].ipiSendWaitCycles, 0u);
    EXPECT_GT(result.tenantMc[0].ipiRemoteCycles, 0u);
    // The victim initiated nothing and is charged nothing.
    EXPECT_EQ(result.tenantMc[1].shootdowns, 0u);
    EXPECT_EQ(result.tenantMc[1].ipisSent, 0u);
    EXPECT_EQ(result.tenantMc[1].ipiSendWaitCycles, 0u);
    EXPECT_EQ(result.tenantMc[1].ipiRemoteCycles, 0u);

    // Remote interrupt time appears on core clocks and as Ipi trace
    // events, consistent with the attribution totals.
    std::uint64_t received = 0;
    Cycles interruptCycles = 0;
    for (const mc::CoreStats &core : result.coreMc) {
        received += core.ipisReceived;
        interruptCycles += core.ipiInterruptCycles;
    }
    EXPECT_EQ(received, result.tenantMc[0].ipisSent);
    EXPECT_EQ(interruptCycles, result.tenantMc[0].ipiRemoteCycles);
    EXPECT_EQ(sink.countOf(obs::EventKind::Ipi), received);
}

// ---------------------------------------------------------------------------
// Timeline integration (per-core gauges, slot-boundary epochs)
// ---------------------------------------------------------------------------

TEST(McTimeline, PerCoreGaugesAndDeltaSumIdentity)
{
    const WorkloadSpec spec = golden::goldenSpec();
    RunConfig run = golden::goldenRunConfig(false);
    run.warmupAccesses = 2'000;
    run.measureAccesses = 8'000;

    mc::McConfig mcConfig;
    mcConfig.cores = 2;
    mcConfig.quantum = 1024;
    mc::MultiCoreSimulator sim(mcConfig, MachineConfig{});
    std::vector<TenantHarness> tenants;
    for (unsigned t = 0; t < 2; ++t) {
        tenants.push_back(makeTenant(spec, {}));
        sim.addTenant(*tenants.back().system,
                      *tenants.back().workload);
    }
    obs::Timeline timeline(4'000);
    sim.attachTimeline(&timeline);
    const mc::McResult result = sim.run(run);

    ASSERT_GE(timeline.epochCount(), 2u);
    // Per-core gauge tracks exist for both cores.
    bool core0 = false, core1 = false;
    for (const std::string &name : timeline.gaugeNames()) {
        if (name == "core0.tlb.l1Valid")
            core0 = true;
        if (name == "core1.tlb.l1Valid")
            core1 = true;
    }
    EXPECT_TRUE(core0);
    EXPECT_TRUE(core1);

    // Delta-sum identity: the final boundary's cumulative counters are
    // the aggregate's counter snapshot, bit for bit.
    const auto &names = timeline.counterNames();
    const auto &last = timeline.lastCounters();
    ASSERT_EQ(names.size(), result.aggregate.counters.size());
    ASSERT_EQ(last.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(names[i], result.aggregate.counters[i].first);
        EXPECT_EQ(last[i], result.aggregate.counters[i].second)
            << names[i];
    }
}
