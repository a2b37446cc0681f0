/**
 * @file
 * The four benchmark workloads and the helpers their checks share.
 * Sizes are pinned here (never read from ASAP_QUICK); `tiny` selects
 * the self-check sizes.
 */

#include "simbench.hh"

#include <algorithm>
#include <ctime>

#include "common/rng.hh"
#include "exp/sweep.hh"
#include "mc/multicore.hh"
#include "obs/profile.hh"
#include "workloads/dynamic.hh"
#include "workloads/suite.hh"
#include "workloads/trace.hh"

namespace simbench
{

using namespace asap;

double
wallNow()
{
    return obs::wallSeconds();
}

namespace
{

/** Process CPU seconds. */
double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

/** Incremental FNV-1a. */
struct Hasher
{
    std::uint64_t h = 1469598103934665603ULL;

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        for (const char c : s) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ULL;
        }
    }

    void
    hist(const obs::Histogram &hist)
    {
        u64(hist.count());
        u64(hist.sum());
        for (std::size_t i = 0; i < obs::Histogram::numBuckets; ++i)
            u64(hist.bucketCount(i));
    }
};

/** The typed RunStats counts compared field by field. */
std::vector<std::pair<const char *, std::uint64_t>>
typedFields(const RunStats &s)
{
    return {{"accesses", s.accesses},
            {"tlbL1Hits", s.tlbL1Hits},
            {"tlbL2Hits", s.tlbL2Hits},
            {"tlbMisses", s.tlbMisses},
            {"faults", s.faults},
            {"walks", s.walkLatency.count()},
            {"walkLatencySum", s.walkLatency.sum()},
            {"totalCycles", s.totalCycles},
            {"walkCycles", s.walkCycles},
            {"dataCycles", s.dataCycles},
            {"computeCycles", s.computeCycles},
            {"appAsap.issued", s.appAsap.issued},
            {"hostAsap.issued", s.hostAsap.issued},
            {"dyn.events", s.dyn.events}};
}

/** Order-sensitive FNV-1a digest of every deterministic RunStats field
 *  (counters included; the wall-clock self-profile excluded). */
std::uint64_t
digestOf(const RunStats &s)
{
    Hasher h;
    for (const auto &field : typedFields(s))
        h.u64(field.second);
    h.u64(s.walkLatency.min());
    h.u64(s.walkLatency.max());
    h.u64(s.walkLatency.sumSquaresHi());
    h.u64(s.walkLatency.sumSquaresLo());
    for (const LevelDistribution &dist : s.levelDist) {
        for (unsigned l = 0; l < numMemLevels; ++l)
            h.u64(dist.count(static_cast<MemLevel>(l)));
    }
    h.hist(s.walkHist);
    h.hist(s.dataHist);
    for (const obs::Histogram &hist : s.levelHist)
        h.hist(hist);
    for (const AsapEngineStats &e : {s.appAsap, s.hostAsap}) {
        h.u64(e.triggers);
        h.u64(e.rangeHits);
        h.u64(e.attempted);
    }
    for (const auto &[name, value] : s.counters) {
        h.str(name);
        h.u64(value);
    }
    return h.h;
}

/** Value of counter @p name, 0 when absent. */
std::uint64_t
counterOf(const Counters &counters, const std::string &name)
{
    for (const auto &[key, value] : counters) {
        if (key == name)
            return value;
    }
    return 0;
}

/** Append the checks every RunStats must pass: totalCycles equals the
 *  sum of its parts and, unless @p accesses is 0, tlb.lookups equals
 *  the accesses the run simulated. */
void
checkStats(const RunStats &stats, std::uint64_t accesses,
           const std::string &what, std::vector<std::string> &out)
{
    if (stats.totalCycles !=
        stats.computeCycles + stats.dataCycles + stats.walkCycles)
        out.push_back(what + ": totalCycles != compute + data + walk");
    const std::uint64_t lookups = counterOf(stats.counters, "tlb.lookups");
    if (accesses != 0 && lookups != accesses) {
        out.push_back(strprintf("%s: tlb.lookups %llu != accesses %llu",
                                what.c_str(), (unsigned long long)lookups,
                                (unsigned long long)accesses));
    }
}

/** Append a failure per field where @p other differs from @p ref: the
 *  typed count/cycle fields and, when @p withCounters, every counter. */
void
compareStats(const RunStats &ref, const RunStats &other, bool withCounters,
             const std::string &what, std::vector<std::string> &out)
{
    const auto a = typedFields(ref);
    const auto b = typedFields(other);
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].second != b[i].second) {
            out.push_back(strprintf("%s: %s %llu != %llu", what.c_str(),
                                    a[i].first,
                                    (unsigned long long)b[i].second,
                                    (unsigned long long)a[i].second));
        }
    }
    if (!withCounters)
        return;
    if (ref.counters.size() != other.counters.size()) {
        out.push_back(strprintf("%s: %zu counters != %zu", what.c_str(),
                                other.counters.size(),
                                ref.counters.size()));
        return;
    }
    for (std::size_t i = 0; i < ref.counters.size(); ++i) {
        if (ref.counters[i] != other.counters[i]) {
            out.push_back(strprintf(
                "%s: counter %s=%llu != %s=%llu", what.c_str(),
                other.counters[i].first.c_str(),
                (unsigned long long)other.counters[i].second,
                ref.counters[i].first.c_str(),
                (unsigned long long)ref.counters[i].second));
        }
    }
}

/** Per-layer counts derived from counters summed over @p systems
 *  Systems, the walk-latency mean and the simulated cycles. */
void
countMetrics(const Counters &counters, double walkCyclesAvg,
             std::uint64_t totalCycles, unsigned systems, Metrics &out)
{
    const auto c = [&counters](const char *name) {
        return double(counterOf(counters, name));
    };
    const auto ratio = [](double part, double whole) {
        return whole == 0.0 ? 0.0 : part / whole;
    };
    const double lookups = c("tlb.lookups");
    const auto pka = [&](const char *name) {
        return ratio(1000.0 * c(name), lookups);
    };
    const double issued = c("asap.app.issued") + c("asap.host.issued");
    const double ipiCycles =
        c("mc.ipiSendWaitCycles") + c("mc.ipiRemoteCycles");
    const Metrics counts = {
        {"tlb.l1_miss_pka", pka("tlb.l1Misses"), "1/kacc"},
        {"tlb.l2_miss_pka", pka("tlb.l2Misses"), "1/kacc"},
        {"walk.pwc_app_hit_ratio",
         ratio(c("pwc.app.hits"), c("pwc.app.lookups")), "ratio"},
        {"walk.pwc_host_hit_ratio",
         ratio(c("pwc.host.hits"), c("pwc.host.lookups")), "ratio"},
        {"walk.sim_cycles_avg", walkCyclesAvg, "cycles"},
        {"asap.issue_ratio",
         ratio(issued, c("asap.app.attempted") + c("asap.host.attempted")),
         "ratio"},
        {"asap.issued_per_walk", ratio(issued, c("walker.walks")),
         "ratio"},
        {"mem.l1d_miss_pka", pka("l1d.misses"), "1/kacc"},
        {"mem.llc_miss_pka", pka("llc.misses"), "1/kacc"},
        {"mshr.late_ratio",
         ratio(c("mshr.prefetchMerges"), c("mshr.prefetchesIssued")),
         "ratio"},
        {"mshr.drop_ratio",
         ratio(c("mshr.prefetchesDropped"),
               c("mshr.prefetchesIssued") + c("mshr.prefetchesDropped")),
         "ratio"},
        {"dyn.events", c("dyn.events"), "count"},
        {"dyn.tlb_invalidated", c("dyn.tlbInvalidated"), "count"},
        {"dyn.pt_nodes_freed", c("dyn.ptNodesFreed"), "count"},
        {"mc.switches", c("mc.contextSwitches"), "count"},
        {"mc.ipis", c("mc.ipisSent"), "count"},
        {"mc.ipi_cycle_share", ratio(ipiCycles, double(totalCycles)),
         "ratio"},
        {"os.page_faults", c("os.pageFaults"), "count"},
        {"buddy.frag_permille",
         ratio(c("buddy.fragPermille"), double(systems)), "permille"},
    };
    out.insert(out.end(), counts.begin(), counts.end());
}

/** Smallest value, or 0 for none. */
double
fastest(const std::vector<Rep> &reps, double Rep::*field)
{
    double best = 0.0;
    for (const Rep &r : reps) {
        if (best == 0.0 || r.*field < best)
            best = r.*field;
    }
    return best;
}

/** Adds the traced pass's simSec to @p times and tracks the fastest. */
struct PassTimer
{
    LayerTimes &times;
    double simSec0 = times.simSec;

    ~PassTimer()
    {
        const double pass = times.simSec - simSec0;
        if (times.bestPassSimSec == 0.0 || pass < times.bestPassSimSec)
            times.bestPassSimSec = pass;
        ++times.passes;
    }
};

void
traceOverhead(double untracedSec, const LayerTimes &times, Metrics &out)
{
    out.push_back({"sim.trace_overhead",
                   untracedSec > 0.0 ? times.bestPassSimSec / untracedSec
                                     : 0.0,
                   "x"});
}

// ---------------------------------------------------------------------
// native_asap and virt_coloc: one stream through Environment::run.
// ---------------------------------------------------------------------

class StreamBench : public Bench
{
  public:
    void
    prepare(std::vector<std::string> &failures) override
    {
        if (!tracePath_.empty()) {
            // Record the generator stream once; every repetition then
            // replays it. The live run is the reference the replays
            // must reproduce bit for bit.
            RecordOptions record;
            record.version = trc2Version;
            recordTrace(spec_, tracePath_, run_.seed, accesses(), record);
            Environment live(spec_, options_);
            check(live.run(machine_, run_), "live run", failures);
        }
        const Rep first = rep();
        failures.insert(failures.end(), first.failures.begin(),
                        first.failures.end());
    }

    Rep
    rep() override
    {
        Rep r;
        const double t0 = wallNow();
        Environment env(inputSpec(), options_);
        const double t1 = wallNow();
        const RunStats stats = env.run(machine_, run_);
        const double t2 = wallNow();
        r.setupSec = t1 - t0;
        r.simSec = t2 - t1;
        r.wallSec = t2 - t0;
        r.accesses = accesses();
        check(stats, tracePath_.empty() ? "repetition" : "trace replay",
              r.failures);
        return r;
    }

    std::vector<std::string>
    traced(Tracer &tracer, LayerTimes &times) override
    {
        PassTimer pass{times};
        const double open0 = wallNow();
        const WorkloadSpec spec = inputSpec();
        if (!tracePath_.empty())
            times.traceOpenSec += wallNow() - open0;
        BuiltSystem built = buildTraced(spec, options_, tracer, times);
        auto machine = machineTraced(*built.system, machine_, tracer, times);
        const RunStats stats = tracedRun(
            *built.system, *machine, *built.workload, run_,
            tracePath_.empty() ? Input::Generator : Input::Trace, tracer,
            times);
        std::vector<std::string> failures;
        checkStats(stats, accesses(), "traced run", failures);
        compareStats(ref_, stats, true, "traced run vs untraced", failures);
        return failures;
    }

    void
    counts(Metrics &out) const override
    {
        countMetrics(ref_.counters, ref_.avgWalkLatency(), ref_.totalCycles,
                     1, out);
    }

    void
    extras(const std::vector<Rep> &reps, const LayerTimes &times,
           Metrics &out, std::vector<std::string> &) override
    {
        traceOverhead(fastest(reps, &Rep::simSec), times, out);
    }

  protected:
    std::uint64_t
    accesses() const
    {
        return run_.warmupAccesses + run_.measureAccesses;
    }

    WorkloadSpec
    inputSpec() const
    {
        return tracePath_.empty() ? spec_ : traceSpec(tracePath_);
    }

    /** The first result checked becomes the reference; every later
     *  one must match its digest. */
    void
    check(const RunStats &stats, const char *what,
          std::vector<std::string> &failures)
    {
        checkStats(stats, accesses(), what, failures);
        const std::uint64_t digest = digestOf(stats);
        if (!haveRef_) {
            ref_ = stats;
            refDigest_ = digest;
            haveRef_ = true;
        } else if (digest != refDigest_) {
            failures.push_back(std::string(what) +
                               ": RunStats digest differs from the "
                               "reference");
            compareStats(ref_, stats, true, what, failures);
        }
    }

    WorkloadSpec spec_;
    EnvironmentOptions options_;
    MachineConfig machine_;
    RunConfig run_;
    /** Non-empty: repetitions replay this ASAPTRC2 trace. */
    std::string tracePath_;

    RunStats ref_;
    std::uint64_t refDigest_ = 0;
    bool haveRef_ = false;
};

/** perf_hotpath's translation-bound stream: mcf-shaped, the warm
 *  window far beyond the 1536-entry L2-STLB reach, native, ASAP
 *  placement, P1+P2, no co-runner, no churn events. */
class NativeAsap : public StreamBench
{
  public:
    NativeAsap(std::uint64_t seed, bool tiny)
    {
        spec_ = mcfSpec();
        spec_.name = "hotpath";
        spec_.residentPages = tiny ? 6'000 : 150'000;
        spec_.windowPages = tiny ? 2'000 : 8'000;
        spec_.churnOps = tiny ? 2'000 : 40'000;
        options_.asapPlacement = true;
        options_.seed = seed;
        machine_ = makeMachineConfig(AsapConfig::p1p2());
        run_.seed = seed;
        run_.warmupAccesses = tiny ? 4'000 : 150'000;
        run_.measureAccesses = tiny ? 16'000 : 600'000;
    }
};

/** mc80 virtualized with P1+P2 in both dimensions under SMT
 *  colocation (3 co-runner accesses per access), replayed from an
 *  ASAPTRC2 trace recorded before timing. */
class VirtColoc : public StreamBench
{
  public:
    VirtColoc(std::uint64_t seed, bool tiny, const std::string &scratch)
    {
        spec_ = tiny ? scaledDown(mc80Spec(), 64) : mc80Spec();
        options_.virtualized = true;
        options_.asapPlacement = true;
        options_.seed = seed;
        machine_ = makeMachineConfig(AsapConfig::p1p2(), AsapConfig::p1p2());
        run_.seed = seed;
        run_.colocation = true;
        run_.corunnerPerAccess = 3;
        run_.warmupAccesses = tiny ? 4'000 : 50'000;
        run_.measureAccesses = tiny ? 16'000 : 200'000;
        tracePath_ = scratch + "/virt_coloc.trc2";
    }
};

// ---------------------------------------------------------------------
// tenant_churn: 8 mcf@tenants tenants on 4 simulated cores.
// ---------------------------------------------------------------------

class TenantChurn : public Bench
{
  public:
    TenantChurn(std::uint64_t seed, bool tiny)
    {
        run_.seed = seed;
        run_.warmupAccesses = tiny ? 2'000 : 30'000;
        run_.measureAccesses = tiny ? 8'000 : 120'000;
        // fig_server's tenant: 16 event bursts per run.
        spec_ = withDynamics(tiny ? scaledDown(mcfSpec(), 64) : mcfSpec(),
                             "tenants", 1.0, accesses() / 16);
        // ASAP placement so P1+P2 has regions to prefetch from and the
        // region lifecycle runs under the churn.
        options_.asapPlacement = true;
        options_.seed = seed;
        machine_ = makeMachineConfig(AsapConfig::p1p2());
        mc_.cores = 4;
        mc_.pcid = true;
    }

    void
    prepare(std::vector<std::string> &failures) override
    {
        // Tenant 0 run serially: the traced pass's reference.
        Environment env(spec_, options_);
        serialRef_ = env.run(machine_, run_);
        checkStats(serialRef_, accesses(), "serial tenant 0", failures);
        const Rep first = rep();
        failures.insert(failures.end(), first.failures.begin(),
                        first.failures.end());
    }

    Rep
    rep() override
    {
        Rep r;
        const double t0 = wallNow();
        std::vector<BuiltSystem> held(tenants);
        for (BuiltSystem &tenant : held) {
            tenant.system =
                std::make_unique<System>(makeSystemConfig(spec_, options_));
            tenant.workload = makeWorkload(spec_);
            tenant.workload->setup(*tenant.system);
        }
        const double t1 = wallNow();
        mc::McResult result;
        {
            mc::MultiCoreSimulator sim(mc_, machine_);
            for (BuiltSystem &tenant : held)
                sim.addTenant(*tenant.system, *tenant.workload);
            result = sim.run(run_);
        }
        const double t2 = wallNow();
        r.setupSec = t1 - t0;
        r.simSec = t2 - t1;
        r.wallSec = t2 - t0;
        r.accesses = tenants * accesses();
        check(result, r.failures);
        return r;
    }

    std::vector<std::string>
    traced(Tracer &tracer, LayerTimes &times) override
    {
        // The mc slot loop is private: build every tenant as a
        // repetition does, then replay tenant 0 serially.
        PassTimer pass{times};
        std::vector<BuiltSystem> held;
        for (unsigned t = 0; t < tenants; ++t)
            held.push_back(buildTraced(spec_, options_, tracer, times));
        auto machine =
            machineTraced(*held[0].system, machine_, tracer, times);
        const RunStats stats =
            tracedRun(*held[0].system, *machine, *held[0].workload, run_,
                       Input::Generator, tracer, times);
        std::vector<std::string> failures;
        checkStats(stats, accesses(), "traced tenant 0", failures);
        compareStats(serialRef_, stats, true,
                     "traced tenant 0 vs untraced", failures);
        return failures;
    }

    void
    counts(Metrics &out) const override
    {
        const RunStats &agg = ref_.aggregate;
        countMetrics(agg.counters, agg.avgWalkLatency(), agg.totalCycles,
                     tenants, out);
    }

    /**
     * mc.loop_overhead: the 1-core/1-tenant MultiCoreSimulator against
     * Environment::run on the same tenant (RunStats pinned identical),
     * fastest of interleaved pairs, each side building its Machine(s).
     */
    void
    extras(const std::vector<Rep> &, const LayerTimes &times, Metrics &out,
           std::vector<std::string> &failures) override
    {
        constexpr int pairs = 5;
        mc::McConfig one;
        one.cores = 1;
        one.pcid = mc_.pcid;
        double serialBest = 0.0, mcBest = 0.0;
        for (int i = 0; i < pairs; ++i) {
            Environment env(spec_, options_);
            const double s0 = wallNow();
            const RunStats serial = env.run(machine_, run_);
            const double serialSec = wallNow() - s0;

            Environment tenant(spec_, options_);
            const double m0 = wallNow();
            mc::McResult result;
            {
                mc::MultiCoreSimulator sim(one, machine_);
                sim.addTenant(tenant.system(), tenant.workload());
                result = sim.run(run_);
            }
            const double mcSec = wallNow() - m0;

            if (digestOf(serial) != digestOf(result.aggregate)) {
                failures.push_back("1x1 MultiCoreSimulator RunStats differ "
                                   "from Environment::run");
                compareStats(serial, result.aggregate, true, "1x1 mc",
                             failures);
            }
            if (i == 0 || serialSec < serialBest)
                serialBest = serialSec;
            if (i == 0 || mcSec < mcBest)
                mcBest = mcSec;
        }
        out.push_back({"mc.loop_overhead", mcBest / serialBest, "x"});
        traceOverhead(serialBest, times, out);
    }

  private:
    static constexpr unsigned tenants = 8;

    std::uint64_t
    accesses() const
    {
        return run_.warmupAccesses + run_.measureAccesses;
    }

    void
    check(const mc::McResult &result, std::vector<std::string> &failures)
    {
        checkStats(result.aggregate, tenants * accesses(), "aggregate",
                   failures);
        // The per-tenant merge must reproduce the aggregate: typed
        // fields exactly, and every counter the two lists share.
        RunStats merged;
        for (std::size_t t = 0; t < result.tenants.size(); ++t) {
            checkStats(result.tenants[t], 0, strprintf("tenant %zu", t),
                       failures);
            merged.merge(result.tenants[t]);
        }
        compareStats(result.aggregate, merged, false,
                     "per-tenant merge vs aggregate", failures);
        for (const auto &[name, value] : merged.counters) {
            for (const auto &[aggName, aggValue] : result.aggregate.counters) {
                if (aggName == name && aggValue != value) {
                    failures.push_back(strprintf(
                        "per-tenant merge: %s %llu != aggregate %llu",
                        name.c_str(), (unsigned long long)value,
                        (unsigned long long)aggValue));
                }
            }
        }

        Hasher h;
        h.u64(digestOf(result.aggregate));
        for (const RunStats &t : result.tenants)
            h.u64(digestOf(t));
        for (const mc::TenantStats &t : result.tenantMc) {
            for (const std::uint64_t v :
                 {t.shootdowns, t.ipisSent, t.ipiSendWaitCycles,
                  t.ipiRemoteCycles, t.switchInCycles})
                h.u64(v);
        }
        for (const mc::CoreStats &c : result.coreMc) {
            for (const std::uint64_t v :
                 {c.switches, c.ipisReceived, c.ipiInterruptCycles,
                  c.tlbShootdownDropped, c.pwcShootdownDropped})
                h.u64(v);
        }
        h.u64(result.slots);
        h.u64(result.maxCoreCycle);
        if (!haveRef_) {
            ref_ = result;
            refDigest_ = h.h;
            haveRef_ = true;
        } else if (h.h != refDigest_) {
            failures.push_back("McResult digest differs from the reference");
        }
    }

    WorkloadSpec spec_;
    EnvironmentOptions options_;
    MachineConfig machine_;
    RunConfig run_;
    mc::McConfig mc_;

    RunStats serialRef_;
    mc::McResult ref_;
    std::uint64_t refDigest_ = 0;
    bool haveRef_ = false;
};

// ---------------------------------------------------------------------
// fig8_sweep: the isolated half of Figure 8 through SweepRunner.
// ---------------------------------------------------------------------

class Fig8Sweep : public Bench
{
  public:
    Fig8Sweep(std::uint64_t seed, bool tiny) : sweep_("simbench_fig8", seed)
    {
        RunConfig run;
        run.seed = seed;
        run.corunnerPerAccess = 3;
        run.warmupAccesses = tiny ? 2'000 : 150'000;
        run.measureAccesses = tiny ? 8'000 : 600'000;
        for (WorkloadSpec spec : standardSuite()) {
            if (tiny)
                spec = scaledDown(spec, 64);
            EnvironmentOptions base;
            base.seed = seed;
            EnvironmentOptions asap = base;
            asap.asapPlacement = true;
            sweep_.add(spec, base, makeMachineConfig(), run, spec.name,
                       "Baseline");
            sweep_.add(spec, asap, makeMachineConfig(AsapConfig::p1()), run,
                       spec.name, "P1");
            sweep_.add(spec, asap, makeMachineConfig(AsapConfig::p1p2()),
                       run, spec.name, "P1+P2");
        }
        // SweepRunner's per-cell seed derivation (mix64 of the base seed
        // and the cell's 1-based index), replayed for the standalone
        // reference runs.
        for (std::size_t i = 0; i < sweep_.cells().size(); ++i) {
            seeds_.push_back(seed != 0 ? mix64(seed ^ (i + 1))
                                       : sweep_.cells()[i].run.seed);
        }
    }

    void
    prepare(std::vector<std::string> &failures) override
    {
        // Each cell standalone, on its own fresh Environment.
        for (std::size_t i = 0; i < cells().size(); ++i) {
            const exp::Cell &cell = cells()[i];
            Environment env(cell.spec, cell.env);
            ref_.push_back(env.run(cell.machine, cellRun(i)));
            checkStats(ref_.back(), accesses(i), label(i), failures);
            refDigest_.push_back(digestOf(ref_.back()));
        }
    }

    Rep
    rep() override
    {
        Rep r;
        const double cpu0 = cpuNow();
        const double t0 = wallNow();
        const exp::ResultSet results = exp::SweepRunner(jobs).run(sweep_);
        r.simSec = r.wallSec = wallNow() - t0;
        r.cpuSec = cpuNow() - cpu0;
        attempts_ = 0;
        for (std::size_t i = 0; i < cells().size(); ++i) {
            const exp::CellResult &cell = results.cells()[i];
            attempts_ += cell.attempts;
            r.accesses += accesses(i);
            r.serialSimSec += cell.stats.profile.wallSec;
            // Cells sharing an Environment report its build time once.
            if (cells()[i].column != "P1+P2")
                r.setupSec += cell.stats.profile.envSetupSec;
            if (!cell.status.ok() || cell.attempts != 1) {
                r.failures.push_back(strprintf(
                    "%s: status %s after %u attempts", label(i).c_str(),
                    cell.status.toString().c_str(), cell.attempts));
                continue;
            }
            checkStats(cell.stats, accesses(i), label(i), r.failures);
            if (digestOf(cell.stats) != refDigest_[i]) {
                r.failures.push_back(label(i) +
                                     ": differs from its standalone run");
                compareStats(ref_[i], cell.stats, true, label(i),
                             r.failures);
            }
        }
        return r;
    }

    std::vector<std::string>
    traced(Tracer &tracer, LayerTimes &times) override
    {
        // Serially, grouped as the runner groups cells: Baseline on its
        // own Environment, P1 then P1+P2 on a shared ASAP-placed one.
        PassTimer pass{times};
        std::vector<std::string> failures;
        BuiltSystem built;
        for (std::size_t i = 0; i < cells().size(); ++i) {
            const exp::Cell &cell = cells()[i];
            if (cell.column != "P1+P2") {
                built = BuiltSystem{};
                built = buildTraced(cell.spec, cell.env, tracer, times);
            }
            auto machine =
                machineTraced(*built.system, cell.machine, tracer, times);
            const RunStats stats =
                tracedRun(*built.system, *machine, *built.workload,
                           cellRun(i), Input::Generator, tracer, times);
            checkStats(stats, accesses(i), "traced " + label(i), failures);
            compareStats(ref_[i], stats, true, "traced " + label(i),
                         failures);
        }
        return failures;
    }

    void
    counts(Metrics &out) const override
    {
        Counters summed;
        std::uint64_t walkSum = 0, walks = 0, totalCycles = 0;
        for (const RunStats &stats : ref_) {
            for (const auto &[name, value] : stats.counters) {
                auto it = std::find_if(
                    summed.begin(), summed.end(),
                    [&name](const auto &c) { return c.first == name; });
                if (it == summed.end())
                    summed.emplace_back(name, value);
                else
                    it->second += value;
            }
            walkSum += stats.walkLatency.sum();
            walks += stats.walkLatency.count();
            totalCycles += stats.totalCycles;
        }
        countMetrics(summed, walks ? double(walkSum) / double(walks) : 0.0,
                     totalCycles, static_cast<unsigned>(ref_.size()), out);
        out.push_back({"exp.cells", double(cells().size()), "count"});
        out.push_back({"exp.cell_attempts", double(attempts_), "count"});
    }

    void
    extras(const std::vector<Rep> &reps, const LayerTimes &times,
           Metrics &out, std::vector<std::string> &) override
    {
        // The fastest sweep's own accounting.
        const Rep *best = nullptr;
        for (const Rep &r : reps) {
            if (!best || r.wallSec < best->wallSec)
                best = &r;
        }
        if (best) {
            out.push_back({"exp.parallel_eff",
                           best->serialSimSec / (best->wallSec * jobs),
                           "ratio"});
            out.push_back({"exp.cpu_s", best->cpuSec, "s"});
            out.push_back(
                {"exp.setup_share", best->setupSec / best->cpuSec, "ratio"});
        }
        traceOverhead(fastest(reps, &Rep::serialSimSec), times, out);
    }

  private:
    /** Sweep workers: 2 on the 4-vCPU reference host. */
    static constexpr unsigned jobs = 2;

    const std::vector<exp::Cell> &cells() const { return sweep_.cells(); }

    RunConfig
    cellRun(std::size_t i) const
    {
        RunConfig run = cells()[i].run;
        run.seed = seeds_[i];
        return run;
    }

    std::uint64_t
    accesses(std::size_t i) const
    {
        return cells()[i].run.warmupAccesses + cells()[i].run.measureAccesses;
    }

    std::string
    label(std::size_t i) const
    {
        return cells()[i].row + "/" + cells()[i].column;
    }

    exp::SweepSpec sweep_;
    std::vector<std::uint64_t> seeds_;
    std::vector<RunStats> ref_;
    std::vector<std::uint64_t> refDigest_;
    unsigned attempts_ = 0;
};

} // namespace

const std::vector<std::string> &
benchNames()
{
    static const std::vector<std::string> names = {
        "native_asap", "virt_coloc", "tenant_churn", "fig8_sweep"};
    return names;
}

std::unique_ptr<Bench>
makeBench(const std::string &name, std::uint64_t seed, bool tiny,
          const std::string &scratch)
{
    if (name == "native_asap")
        return std::make_unique<NativeAsap>(seed, tiny);
    if (name == "virt_coloc")
        return std::make_unique<VirtColoc>(seed, tiny, scratch);
    if (name == "tenant_churn")
        return std::make_unique<TenantChurn>(seed, tiny);
    if (name == "fig8_sweep")
        return std::make_unique<Fig8Sweep>(seed, tiny);
    return nullptr;
}

} // namespace simbench
