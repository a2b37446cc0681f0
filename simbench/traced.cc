#include "simbench.hh"

#include <algorithm>
#include <cstdio>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "dyn/dynamics.hh"
#include "os/pt_allocators.hh"

namespace simbench
{

using namespace asap;

namespace
{

/** Keep at most this many per-call spans in memory (~1 MB of JSON). */
constexpr std::size_t fineSpanCap = 20'000;

/** Addresses per Workload::nextBatch call, as in Simulator::runPhase. */
constexpr std::size_t accessBatch = 1024;

} // namespace

std::uint64_t
Tracer::tick()
{
#if defined(__x86_64__)
    // lfence on both sides keeps the timed call from drifting across
    // the read (the lightweight form of the RDTSC/RDTSCP fencing
    // idiom; CPUID would trap to the hypervisor on a VM).
    _mm_lfence();
    const std::uint64_t t = __rdtsc();
    _mm_lfence();
    return t;
#else
    return static_cast<std::uint64_t>(wallNow() * 1e9);
#endif
}

Tracer::Tracer(unsigned samplePeriod)
    : samplePeriod_(samplePeriod), tick0_(tick()), wall0_(wallNow())
{
    constexpr unsigned pairs = 100'000;
    std::uint64_t total = 0;
    for (unsigned i = 0; i < pairs; ++i) {
        const std::uint64_t a = tick();
        total += tick() - a;
    }
    overheadTicks_ = double(total) / pairs;
    spans_.reserve(4096);
}

double
Tracer::ticksToNs(double ticks) const
{
    const double elapsedNs = (wallNow() - wall0_) * 1e9;
    const double elapsedTicks = double(tick() - tick0_);
    return elapsedTicks <= 0.0 ? 0.0 : ticks * elapsedNs / elapsedTicks;
}

void
Tracer::span(const char *name, std::uint64_t start, std::uint64_t end,
             bool fine)
{
    if (fine) {
        if (fineSpans_ >= fineSpanCap)
            return;
        ++fineSpans_;
    }
    spans_.push_back({name, start, end});
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    std::fprintf(out, "{\"ph\":\"M\",\"pid\":1,\"tid\":1,"
                      "\"name\":\"thread_name\","
                      "\"args\":{\"name\":\"simbench traced run\"}}");
    for (const Span &s : spans_) {
        const double us = ticksToNs(double(s.start - tick0_)) / 1e3;
        const double dur = ticksToNs(double(s.end - s.start)) / 1e3;
        std::fprintf(out,
                     ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"%s\","
                     "\"ts\":%.3f,\"dur\":%.3f}",
                     s.name, us, dur);
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
}

namespace
{

/** Time one call into @p clock (sampled accesses only). */
template <typename F>
auto
timed(Tracer &tracer, CallClock &clock, const char *name, F &&call)
{
    const std::uint64_t start = Tracer::tick();
    auto result = call();
    const std::uint64_t end = Tracer::tick();
    clock.sampledTicks += double(end - start) - tracer.overheadTicks();
    ++clock.sampled;
    tracer.span(name, start, end, true);
    return result;
}

} // namespace

RunStats
tracedRun(System &system, Machine &machine, Workload &workload,
          const RunConfig &config, Input input, Tracer &tracer,
          LayerTimes &times)
{
    Rng rng(config.seed);
    Rng corunnerRng(config.seed ^ 0x5eed);
    workload.reset(rng);

    const unsigned cpa = workload.computeCyclesPerAccess();
    RunStats stats;
    Cycles now = 0;
    OsDynamics dynamics(workload.events(), system, machine);
    const bool dynamic = dynamics.active();
    std::uint64_t consumed = 0;
    VirtAddr lastVa = ~VirtAddr{0};
    const Cycles streamingLatency = machine.mem().config().l1d.latency;
    const unsigned period = tracer.samplePeriod();
    unsigned untilSample = 0;
    times.traceInput = input == Input::Trace;

    const AsapPtAllocator *alloc = system.appAsapAllocator();
    const std::uint64_t holes0 = alloc ? alloc->holesCreatedByGrowth() : 0;
    const std::uint64_t relocated0 =
        alloc ? alloc->framesRelocatedForGrowth() : 0;
    const std::uint64_t released0 = alloc ? alloc->regionsReleased() : 0;
    const std::uint64_t releasedFrames0 =
        alloc ? alloc->releasedFrames() : 0;

    const auto applyDue = [&] {
        const std::uint64_t events0 = stats.dyn.events;
        const std::uint64_t start = Tracer::tick();
        dynamics.applyDue(consumed, stats.dyn, now);
        const std::uint64_t end = Tracer::tick();
        times.dynTicks += double(end - start);
        times.dynEvents += stats.dyn.events - events0;
        if (stats.dyn.events != events0)
            tracer.span("dyn.applyDue", start, end);
    };

    const auto phase = [&](std::uint64_t accesses, bool measuring) {
        if (measuring) {
            stats.accesses += accesses;
            stats.computeCycles += cpa * accesses;
        }
        VirtAddr vas[accessBatch];
        while (accesses > 0) {
            std::size_t batch = accesses < accessBatch
                                    ? static_cast<std::size_t>(accesses)
                                    : accessBatch;
            if (dynamic) {
                applyDue();
                const std::uint64_t gap = dynamics.gapUntilNext(consumed);
                if (gap < batch)
                    batch = static_cast<std::size_t>(gap);
            }
            accesses -= batch;
            const std::uint64_t genStart = Tracer::tick();
            workload.nextBatch(rng, vas, batch);
            const std::uint64_t genEnd = Tracer::tick();
            times.genTicks += double(genEnd - genStart);
            times.genAccesses += batch;
            tracer.span(input == Input::Trace ? "trace.decode"
                                              : "workloads.nextBatch",
                        genStart, genEnd, true);

            for (std::size_t i = 0; i < batch; ++i) {
                const VirtAddr va = vas[i];
                const bool sample = untilSample == 0;
                untilSample = sample ? period - 1 : untilSample - 1;

                Machine::TranslateResult result;
                if (sample) {
                    const std::uint64_t start = Tracer::tick();
                    result = machine.translate(va, now);
                    const std::uint64_t end = Tracer::tick();
                    CallClock &clock = result.walked ? times.miss
                                                     : times.hit;
                    clock.sampledTicks +=
                        double(end - start) - tracer.overheadTicks();
                    ++clock.sampled;
                    tracer.span(result.walked ? "walk.translate"
                                              : "tlb.translate",
                                start, end, true);
                } else {
                    result = machine.translate(va, now);
                }
                ++(result.walked ? times.miss : times.hit).calls;
                const Cycles walkLatency = result.walkLatency;
                if (measuring) {
                    switch (result.tlbLevel) {
                      case TlbHitLevel::L1:
                        ++stats.tlbL1Hits;
                        break;
                      case TlbHitLevel::L2:
                        ++stats.tlbL2Hits;
                        break;
                      case TlbHitLevel::Miss:
                        ++stats.tlbMisses;
                        break;
                    }
                    if (result.faulted)
                        ++stats.faults;
                    if (result.walked) {
                        stats.walkLatency.sample(walkLatency);
                        stats.walkHist.sample(walkLatency);
                        if (result.walk) {
                            for (unsigned level = 1; level <= 5; ++level) {
                                if (result.walk->requested[level]) {
                                    stats.levelDist[level].record(
                                        result.walk->servedBy[level]);
                                    stats.levelHist[level].sample(
                                        result.walk->levelLatency[level]);
                                }
                            }
                        }
                    }
                }

                const PhysAddr pa = result.translation.physAddrOf(va);
                Cycles dataLatency =
                    sample ? timed(tracer, times.data, "mem.dataAccess",
                                   [&] { return machine.dataAccess(pa); })
                           : machine.dataAccess(pa);
                ++times.data.calls;
                if (va == lastVa + lineSize)
                    dataLatency = streamingLatency;
                lastVa = va;

                now += cpa + dataLatency + walkLatency;
                if (measuring) {
                    stats.dataCycles += dataLatency;
                    stats.walkCycles += walkLatency;
                    stats.dataHist.sample(dataLatency);
                }

                if (config.colocation) {
                    for (unsigned c = 0; c < config.corunnerPerAccess;
                         ++c) {
                        if (sample) {
                            timed(tracer, times.corunner,
                                  "mem.corunnerAccess", [&] {
                                      machine.corunnerAccess(corunnerRng);
                                      return 0;
                                  });
                        } else {
                            machine.corunnerAccess(corunnerRng);
                        }
                        ++times.corunner.calls;
                    }
                }
            }
            consumed += batch;
        }
    };

    const double wallStart = wallNow();
    const std::uint64_t loopStart = Tracer::tick();
    phase(config.warmupAccesses, false);
    const std::uint64_t measureStart = Tracer::tick();
    tracer.span("loop.warmup", loopStart, measureStart);
    phase(config.measureAccesses, true);
    if (dynamic)
        applyDue();
    const std::uint64_t loopEnd = Tracer::tick();
    tracer.span("loop.measure", measureStart, loopEnd);
    times.loopTicks += double(loopEnd - loopStart);
    times.simSec += wallNow() - wallStart;

    if (alloc) {
        stats.dyn.regionGrowthHoles = alloc->holesCreatedByGrowth() - holes0;
        stats.dyn.regionRelocations =
            alloc->framesRelocatedForGrowth() - relocated0;
        stats.dyn.regionsReleased = alloc->regionsReleased() - released0;
        stats.dyn.regionFramesReleased =
            alloc->releasedFrames() - releasedFrames0;
    }
    stats.totalCycles =
        stats.computeCycles + stats.dataCycles + stats.walkCycles;

    const auto engineStats = [](const AsapEngine *engine) {
        AsapEngineStats s;
        if (engine) {
            s.triggers = engine->triggers();
            s.rangeHits = engine->rangeHits();
            s.attempted = engine->attempted();
            s.issued = engine->issued();
        }
        return s;
    };
    stats.appAsap = engineStats(machine.appEngine());
    stats.hostAsap = engineStats(machine.hostEngine());

    obs::Registry registry;
    machine.registerCounters(registry);
    system.registerCounters(registry);
    stats.counters = registry.snapshot();
    const OsDynStats &d = stats.dyn;
    for (const auto &[name, value] : Counters{
             {"dyn.events", d.events},
             {"dyn.mmaps", d.mmaps},
             {"dyn.munmaps", d.munmaps},
             {"dyn.minorFaults", d.minorFaults},
             {"dyn.madviseFrees", d.madviseFrees},
             {"dyn.extends", d.extends},
             {"dyn.churnReleases", d.churnReleases},
             {"dyn.dataPagesFreed", d.dataPagesFreed},
             {"dyn.ptNodesFreed", d.ptNodesFreed},
             {"dyn.churnFramesReleased", d.churnFramesReleased},
             {"dyn.tlbInvalidated", d.tlbInvalidated},
             {"dyn.pwcInvalidated", d.pwcInvalidated},
             {"dyn.regionGrowthHoles", d.regionGrowthHoles},
             {"dyn.regionRelocations", d.regionRelocations},
             {"dyn.regionsReleased", d.regionsReleased},
             {"dyn.regionFramesReleased", d.regionFramesReleased}})
        stats.counters.emplace_back(name, value);
    return stats;
}

BuiltSystem
buildTraced(const WorkloadSpec &spec, const EnvironmentOptions &options,
            Tracer &tracer, LayerTimes &times)
{
    BuiltSystem built;
    const std::uint64_t t0 = Tracer::tick();
    const double w0 = wallNow();
    built.system =
        std::make_unique<System>(makeSystemConfig(spec, options));
    const std::uint64_t t1 = Tracer::tick();
    const double w1 = wallNow();
    // A trace-backed spec opens (mmaps and indexes) its file here.
    built.workload = makeWorkload(spec);
    const std::uint64_t t2 = Tracer::tick();
    const double w2 = wallNow();
    built.workload->setup(*built.system);
    const std::uint64_t t3 = Tracer::tick();
    const double w3 = wallNow();

    tracer.span("os.System", t0, t1);
    tracer.span("workloads.make", t1, t2);
    tracer.span("os.prefault", t2, t3);
    times.systemBuildSec += w1 - w0;
    if (!spec.tracePath.empty())
        times.traceOpenSec += w2 - w1;
    times.prefaultSec += w3 - w2;
    times.prefaultPages += built.system->appSpace().touchedPages();
    return built;
}

std::unique_ptr<Machine>
machineTraced(System &system, const MachineConfig &cfg, Tracer &tracer,
              LayerTimes &times)
{
    const std::uint64_t t0 = Tracer::tick();
    const double w0 = wallNow();
    auto machine = std::make_unique<Machine>(system, cfg);
    const double sec = wallNow() - w0;
    tracer.span("sim.Machine", t0, Tracer::tick());
    times.machineBuildSec += sec;
    times.simSec += sec;
    ++times.machines;
    return machine;
}

} // namespace simbench
