#include "sim/simulator.hh"

#include <algorithm>
#include <type_traits>

#include "common/logging.hh"
#include "common/status.hh"
#include "obs/timeline.hh"
#include "os/pt_allocators.hh"

namespace asap
{

namespace
{

/** Addresses generated per Workload::nextBatch call. */
constexpr std::size_t accessBatch = 1024;

/** Constant-initialized, so it has no exit-time destructor to race a
 *  sweep worker that is still running when the process exits. */
constexpr std::array<AsapEngineStats::Field, 4> asapFields = {{
    {"triggers", &AsapEngineStats::triggers},
    {"rangeHits", &AsapEngineStats::rangeHits},
    {"attempted", &AsapEngineStats::attempted},
    {"issued", &AsapEngineStats::issued},
}};
static_assert(sizeof(AsapEngineStats) ==
                  asapFields.size() * sizeof(std::uint64_t),
              "every AsapEngineStats field needs an asapFields entry");

/** RunStats::merge of one part, whatever its type. */
template <typename T>
void
mergePart(T &into, const T &from)
{
    if constexpr (std::is_same_v<T, std::uint64_t>)
        into += from;
    else if constexpr (std::is_same_v<T, obs::Counters>)
        obs::addCounters(into, from);
    else
        into.merge(from);
}

template <typename T, std::size_t N>
void
mergePart(std::array<T, N> &into, const std::array<T, N> &from)
{
    for (std::size_t i = 0; i < N; ++i)
        into[i].merge(from[i]);
}

// RunStats::diff of one part: a line per differing field.

using DiffLines = std::vector<std::string>;

void
diffPart(DiffLines &out, const std::string &name, std::uint64_t a,
         std::uint64_t b)
{
    if (a != b)
        out.push_back(strprintf("%s: %llu vs %llu", name.c_str(),
                                static_cast<unsigned long long>(a),
                                static_cast<unsigned long long>(b)));
}

void
diffPart(DiffLines &out, const std::string &name, const SampleStat &a,
         const SampleStat &b)
{
    diffPart(out, name + ".count", a.count(), b.count());
    diffPart(out, name + ".sum", a.sum(), b.sum());
    diffPart(out, name + ".min", a.min(), b.min());
    diffPart(out, name + ".max", a.max(), b.max());
    diffPart(out, name + ".sqHi", a.sumSquaresHi(), b.sumSquaresHi());
    diffPart(out, name + ".sqLo", a.sumSquaresLo(), b.sumSquaresLo());
}

void
diffPart(DiffLines &out, const std::string &name,
         const LevelDistribution &a, const LevelDistribution &b)
{
    for (std::size_t i = 0; i < numMemLevels; ++i) {
        const auto level = static_cast<MemLevel>(i);
        diffPart(out, name + "." + memLevelName(level), a.count(level),
                 b.count(level));
    }
}

void
diffPart(DiffLines &out, const std::string &name, const obs::Histogram &a,
         const obs::Histogram &b)
{
    diffPart(out, name + ".count", a.count(), b.count());
    diffPart(out, name + ".sum", a.sum(), b.sum());
    for (std::size_t i = 0; i < obs::Histogram::numBuckets; ++i) {
        if (a.bucketCount(i) != b.bucketCount(i))
            diffPart(out, strprintf("%s.b[%zu]", name.c_str(), i),
                     a.bucketCount(i), b.bucketCount(i));
    }
}

/** Counters compare by position: one line per position whose name or
 *  value differs, or that only one list has. */
void
diffPart(DiffLines &out, const std::string &name, const obs::Counters &a,
         const obs::Counters &b)
{
    const auto entry = [](const obs::Counters &c, std::size_t i) {
        return i < c.size() ? strprintf("%s=%llu", c[i].first.c_str(),
                                        static_cast<unsigned long long>(
                                            c[i].second))
                            : std::string("absent");
    };
    for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
        if (i >= a.size() || i >= b.size() || a[i] != b[i])
            out.push_back(strprintf("%s[%zu]: %s vs %s", name.c_str(), i,
                                    entry(a, i).c_str(),
                                    entry(b, i).c_str()));
    }
}

/** A field-table struct: AsapEngineStats or OsDynStats. */
template <typename T, typename = decltype(T::fields())>
void
diffPart(DiffLines &out, const std::string &name, const T &a, const T &b)
{
    for (const typename T::Field &f : T::fields())
        diffPart(out, name + "." + f.name, a.*f.member, b.*f.member);
}

template <typename T, std::size_t N>
void
diffPart(DiffLines &out, const std::string &name, const std::array<T, N> &a,
         const std::array<T, N> &b)
{
    for (std::size_t i = 0; i < N; ++i)
        diffPart(out, strprintf("%s[%zu]", name.c_str(), i), a[i], b[i]);
}

} // namespace

const std::array<AsapEngineStats::Field, 4> &
AsapEngineStats::fields()
{
    return asapFields;
}

void
RunStats::merge(const RunStats &other)
{
    forEachPart(*this, other, [](const char *, auto &into,
                                 const auto &from) {
        mergePart(into, from);
    });
}

std::vector<std::string>
RunStats::diff(const RunStats &other) const
{
    DiffLines lines;
    forEachPart(*this, other, [&lines](const char *name, const auto &a,
                                       const auto &b) {
        diffPart(lines, name, a, b);
    });
    return lines;
}

AccessStream::AccessStream(System &system, Workload &workload,
                           ShootdownTarget &target,
                           const RunConfig &config, std::uint64_t seed)
    : system_(system), workload_(workload), config_(config), rng_(seed),
      corunnerRng_(seed ^ 0x5eed), cpa_(workload.computeCyclesPerAccess()),
      dyn_(workload.events(), system, target),
      warmupLeft_(config.warmupAccesses),
      measureLeft_(config.measureAccesses),
      regions_(system.appAsapAllocator()), regionsAtStart_(regionCounts())
{
    workload_.reset(rng_);
}

AccessStream::RegionCounts
AccessStream::regionCounts() const
{
    if (!regions_)
        return {};
    return {regions_->holesCreatedByGrowth(),
            regions_->framesRelocatedForGrowth(),
            regions_->regionsReleased(), regions_->releasedFrames()};
}

OsDynStats
AccessStream::dynStats() const
{
    OsDynStats d = stats_.dyn;
    const RegionCounts now = regionCounts();
    d.regionGrowthHoles = now.holes - regionsAtStart_.holes;
    d.regionRelocations = now.relocated - regionsAtStart_.relocated;
    d.regionsReleased = now.released - regionsAtStart_.released;
    d.regionFramesReleased =
        now.releasedFrames - regionsAtStart_.releasedFrames;
    return d;
}

std::uint64_t
AccessStream::advance(Machine &machine, Cycles &now, std::uint64_t budget)
{
    const Cycles streamingLatency = machine.mem().config().l1d.latency;
    const bool perfectTlb = config_.perfectTlb;
    const bool colocation = config_.colocation;
    const unsigned corunnerPerAccess = config_.corunnerPerAccess;
    std::uint64_t measured = 0;

    VirtAddr vas[accessBatch];
    while (budget > 0 && !done()) {
        // A timed sweep cell stops here once its deadline has passed.
        checkDeadline();
        const bool measuring = warmupLeft_ == 0;
        std::uint64_t &phaseLeft = measuring ? measureLeft_ : warmupLeft_;
        std::size_t batch = static_cast<std::size_t>(
            std::min({static_cast<std::uint64_t>(accessBatch), budget,
                      phaseLeft}));
        if (dyn_.active()) {
            // Fire every event due at this point of the access stream,
            // then cap the batch so the next one lands exactly on the
            // next event's offset. With no event stream (the static
            // path) none of this runs and batching is unchanged.
            dyn_.applyDue(consumed_, stats_.dyn, now);
            const std::uint64_t gap = dyn_.gapUntilNext(consumed_);
            if (gap < batch)
                batch = static_cast<std::size_t>(gap);
        }
        // The generator draws only from rng and never observes machine
        // state, so producing a batch up front leaves every simulated
        // event in the exact order of the access-at-a-time loop.
        workload_.nextBatch(rng_, vas, batch);

        for (std::size_t i = 0; i < batch; ++i) {
            const VirtAddr va = vas[i];
            Cycles walkLatency = 0;
            Translation translation;
            if (perfectTlb) {
                // Ideal TLB: translation is free (Table 6 methodology:
                // execution with page walks eliminated).
                translation = system_.touch(va).translation;
            } else {
                const Machine::TranslateResult result =
                    machine.translate(va, now);
                translation = result.translation;
                walkLatency = result.walkLatency;
                if (measuring) {
                    switch (result.tlbLevel) {
                      case TlbHitLevel::L1:
                        ++stats_.tlbL1Hits;
                        break;
                      case TlbHitLevel::L2:
                        ++stats_.tlbL2Hits;
                        break;
                      case TlbHitLevel::Miss:
                        ++stats_.tlbMisses;
                        break;
                    }
                    if (result.faulted)
                        ++stats_.faults;
                    if (result.walked) {
                        stats_.walkLatency.sample(walkLatency);
                        stats_.walkHist.sample(walkLatency);
                        if (result.walk) {
                            for (unsigned level = 1; level <= 5; ++level) {
                                if (result.walk->requested[level]) {
                                    stats_.levelDist[level].record(
                                        result.walk->servedBy[level]);
                                    stats_.levelHist[level].sample(
                                        result.walk->levelLatency[level]);
                                }
                            }
                        }
                    }
                }
            }

            const PhysAddr pa = translation.physAddrOf(va);
            Cycles dataLatency = machine.dataAccess(pa);
            // Streaming accesses are covered by the ubiquitous next-line
            // data prefetcher: the fill (and its cache pressure) is
            // real, but the core does not expose the miss latency.
            if (va == lastVa_ + lineSize)
                dataLatency = streamingLatency;
            lastVa_ = va;

            now += cpa_ + dataLatency + walkLatency;
            if (measuring) {
                // accesses/compute are counted per batch below, and
                // totalCycles is derived from the components in finish().
                stats_.dataCycles += dataLatency;
                stats_.walkCycles += walkLatency;
                stats_.dataHist.sample(dataLatency);
            }

            // SMT co-runner: one random access per workload access
            // (Section 4), contending for the shared cache hierarchy
            // only.
            if (colocation) {
                for (unsigned c = 0; c < corunnerPerAccess; ++c)
                    machine.corunnerAccess(corunnerRng_);
            }
        }

        consumed_ += batch;
        budget -= batch;
        phaseLeft -= batch;
        if (measuring) {
            stats_.accesses += batch;
            stats_.computeCycles += cpa_ * batch;
            measured += batch;
        }
    }
    return measured;
}

void
AccessStream::finish(Cycles now)
{
    // Events scheduled exactly at the end of the stream still fire
    // (e.g. a final tenant departure).
    if (dyn_.active())
        dyn_.applyDue(consumed_, stats_.dyn, now);
    stats_.dyn = dynStats();
    stats_.totalCycles =
        stats_.computeCycles + stats_.dataCycles + stats_.walkCycles;
}

RunStats
Simulator::run(const RunConfig &config)
{
    // OS dynamics: a workload may carry an event stream (churn
    // profiles, replayed dynamic traces). Events fire between batches
    // at exact access offsets, their shootdowns on this Machine.
    AccessStream stream(system_, workload_, machine_, config, config.seed);
    RunStats &stats = stream.stats();
    Cycles now = 0;

    // Counter collection shared by the timeline's epoch boundaries and
    // the end-of-run snapshot below: the identical name list and the
    // identical value sources, so the timeline's per-epoch deltas sum
    // to stats.counters exactly (tests/test_timeline.cc pins this).
    // A Registry holds the values read at registration, so a fresh one
    // is built per snapshot — cold path only.
    const auto collectCounters = [&]() {
        obs::Registry registry;
        machine_.registerCounters(registry);
        system_.registerCounters(registry);
        obs::Counters counters = registry.snapshot();
        stream.dynStats().appendCounters(counters);
        return counters;
    };

    // Instantaneous occupancy/fragmentation gauges — state the counter
    // registry cannot express as lifetime sums. Sampled only at epoch
    // boundaries (and once at end of run), never on the hot path.
    const auto collectGauges = [&]() {
        obs::Counters gauges;
        const auto gauge = [&gauges](const char *name,
                                     std::uint64_t value) {
            gauges.emplace_back(name, value);
        };
        const auto permille = [](std::uint64_t part,
                                 std::uint64_t whole) -> std::uint64_t {
            return whole == 0 ? 0 : 1000 * part / whole;
        };
        TlbHierarchy &tlb = machine_.tlb();
        gauge("tlb.l1Valid", tlb.l1ValidEntries());
        gauge("tlb.l1ValidPermille",
              permille(tlb.l1ValidEntries(), tlb.l1Entries()));
        gauge("tlb.l2Valid", tlb.l2ValidEntries());
        gauge("tlb.l2ValidPermille",
              permille(tlb.l2ValidEntries(), tlb.l2Entries()));
        PageWalkCaches &pwc = machine_.appPwc();
        gauge("pwc.appValid", pwc.validEntries());
        gauge("pwc.appValidPermille",
              permille(pwc.validEntries(), pwc.capacityEntries()));
        gauge("pt.liveNodes", system_.appPt().nodeCount());
        gauge("pt.deadNodes", system_.appPt().deadNodeCount());
        BuddyAllocator &buddy = system_.machineFrames();
        gauge("buddy.freeFrames", buddy.freeFrames());
        const int largest = buddy.largestFreeOrder();
        gauge("buddy.largestFreeOrderPlus1",
              static_cast<std::uint64_t>(largest + 1));
        gauge("buddy.fragPermille", buddy.fragmentationPermille());
        if (const AsapPtAllocator *appAllocator =
                system_.appAsapAllocator()) {
            std::uint64_t live = 0, slots = 0, backed = 0;
            for (const auto *region : appAllocator->regions()) {
                ++live;
                slots += region->slots;
                backed += region->backedSlots;
            }
            gauge("asap.regions", live);
            gauge("asap.regionSlots", slots);
            gauge("asap.backedSlots", backed);
            gauge("asap.contigPermille",
                  slots == 0 ? 1000 : 1000 * backed / slots);
        }
        gauge("mshr.inflight", machine_.mem().inflightPrefetches());
        gauge("mshr.inflightHighWater",
              machine_.mem().inflightHighWater());
        return gauges;
    };

    const double phaseStart = obs::wallSeconds();
    stream.advance(machine_, now, config.warmupAccesses);
    stats.profile.warmupSec = obs::wallSeconds() - phaseStart;

    // Epoch chunking (see attachTimeline): every workload's nextBatch
    // draws addresses one at a time from its generation core, so
    // splitting the phase replays the identical stream. The final
    // boundary is sampled after the post-run bookkeeping below, so the
    // last epoch's cumulative counters equal stats.counters exactly.
    const std::uint64_t epochLen =
        timeline_ && timeline_->epochAccesses() != 0
            ? timeline_->epochAccesses()
            : config.measureAccesses;
    std::uint64_t done = 0;
    while (done < config.measureAccesses) {
        const std::uint64_t chunk =
            std::min(epochLen, config.measureAccesses - done);
        stream.advance(machine_, now, chunk);
        done += chunk;
        if (timeline_ && done < config.measureAccesses) {
            timeline_->sample(done, now, collectCounters(),
                              stats.walkHist, stats.dataHist,
                              collectGauges());
        }
    }
    stats.profile.measureSec =
        obs::wallSeconds() - phaseStart - stats.profile.warmupSec;
    stats.profile.accessesPerSec =
        stats.profile.measureSec > 0.0
            ? static_cast<double>(config.measureAccesses) /
                  stats.profile.measureSec
            : 0.0;

    stream.finish(now);
    stats.appAsap = AsapEngineStats::of(machine_.appEngine());
    stats.hostAsap = AsapEngineStats::of(machine_.hostEngine());

    // Snapshot every registered component counter into the run's
    // result — the sweep layer emits whatever appears here, so new
    // counters need no per-experiment column wiring.
    stats.counters = collectCounters();

    // The final epoch boundary: sampled *after* the end-of-stream OS
    // events and region-delta bookkeeping above, with the very vector
    // stored in stats — per-epoch deltas therefore sum to the lifetime
    // snapshot bit-exactly.
    if (timeline_) {
        timeline_->sample(config.measureAccesses, now, stats.counters,
                          stats.walkHist, stats.dataHist,
                          collectGauges());
    }
    return std::move(stats);
}

} // namespace asap
