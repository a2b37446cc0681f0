/**
 * @file
 * Walk-event tracing: a bounded ring of compact simulated-time events,
 * exportable as Chrome trace-event JSON (loads in Perfetto or
 * chrome://tracing; simulated cycles are reported as microseconds).
 *
 * Zero-cost-when-off contract: components hold a `TraceSink *` that is
 * null by default, so the hot path pays one never-taken branch per
 * emission site and nothing else. An attached sink records every
 * event; the golden-equivalence test checks that doing so never
 * perturbs the model.
 *
 * Events are fixed-size PODs (kind + track + three uint64 args); the
 * ring overwrites the oldest events once full and counts the overwritten
 * ones, so tracing a long run degrades to "the last N events" instead
 * of unbounded memory.
 */

#ifndef ASAP_OBS_TRACE_SINK_HH
#define ASAP_OBS_TRACE_SINK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace asap::obs
{

enum class EventKind : std::uint8_t
{
    WalkSpan = 0,    ///< native 1D walk: a0=va, a1=packed levels, a2=fault
    NestedWalkSpan,  ///< 2D walk: a0=va, a1=PT memory accesses, a2=fault
    Fault,           ///< OS fault service: a0=va
    AsapTrigger,     ///< engine saw a walk start: a0=va, a1=range hit
    AsapIssue,       ///< per-level prefetch: a0=entry PA, a1=level, a2=issued
    PrefetchFill,    ///< in-flight prefetch fill: a0=line PA
    PrefetchMerge,   ///< demand merged with fill: a0=line PA, a1=exposed lat
    OsEvent,         ///< mid-run OS event: a0=OsEventKind, a1=addr, a2=pages
    Shootdown,       ///< targeted invalidation: a0=TLB drops, a1=PWC drops
    Ipi,             ///< inter-core shootdown IPI: a0=initiating core,
                     ///< a1=target core, a2=interrupt cost (cycles)
    NumKinds
};

/** The "thread" an event renders on — one per machine dimension. */
enum class Track : std::uint8_t
{
    Core = 0,   ///< walks, faults (the translation machinery)
    AsapApp,    ///< application/guest-dimension ASAP engine
    AsapHost,   ///< host-dimension ASAP engine
    Mem,        ///< memory hierarchy (prefetch fills and merges)
    Os,         ///< OS events and shootdowns
    NumTracks
};

struct TraceEvent
{
    Cycles start = 0;
    Cycles duration = 0;   ///< 0 = instant event
    EventKind kind = EventKind::WalkSpan;
    Track track = Track::Core;
    std::uint64_t a0 = 0, a1 = 0, a2 = 0;
};

/**
 * Per-level serving breakdown packed into a uint64 for WalkSpan events:
 * 4 bits per PT level (levels 1..5), 0 = level not requested, else
 * 1 + MemLevel of the serving structure. Kept caller-side (the sink
 * knows nothing about walks); decoded back by the JSON exporter.
 */
constexpr std::uint64_t
packWalkLevel(std::uint64_t packed, unsigned level, unsigned memLevel)
{
    return packed | (std::uint64_t{1 + memLevel} << (4 * level));
}

class TraceSink
{
  public:
    static constexpr std::size_t defaultCapacity = 1u << 20;

    explicit TraceSink(std::size_t capacity = defaultCapacity);

    // -- Emission ------------------------------------------------------

    void
    walkSpan(Cycles start, Cycles duration, VirtAddr va, bool faulted,
             std::uint64_t packedLevels)
    {
        push({start, duration, EventKind::WalkSpan, Track::Core, va,
              packedLevels, faulted ? 1u : 0u});
    }

    void
    nestedWalkSpan(Cycles start, Cycles duration, VirtAddr va,
                   bool faulted, std::uint64_t memAccesses)
    {
        push({start, duration, EventKind::NestedWalkSpan, Track::Core,
              va, memAccesses, faulted ? 1u : 0u});
    }

    void
    fault(Cycles at, VirtAddr va)
    {
        push({at, 0, EventKind::Fault, Track::Core, va, 0, 0});
    }

    void
    asapTrigger(Track track, Cycles at, VirtAddr va, bool rangeHit)
    {
        push({at, 0, EventKind::AsapTrigger, track, va,
              rangeHit ? 1u : 0u, 0});
    }

    void
    asapIssue(Track track, Cycles at, unsigned level, PhysAddr entryPa,
              bool issued)
    {
        push({at, 0, EventKind::AsapIssue, track, entryPa, level,
              issued ? 1u : 0u});
    }

    void
    prefetchFill(Cycles start, Cycles readyAt, PhysAddr pa)
    {
        push({start, readyAt - start, EventKind::PrefetchFill,
              Track::Mem, pa, 0, 0});
    }

    void
    prefetchMerge(Cycles at, PhysAddr pa, Cycles exposedLatency)
    {
        push({at, 0, EventKind::PrefetchMerge, Track::Mem, pa,
              exposedLatency, 0});
    }

    void
    osEvent(Cycles at, unsigned kind, std::uint64_t addr,
            std::uint64_t pages)
    {
        push({at, 0, EventKind::OsEvent, Track::Os, kind, addr, pages});
    }

    void
    shootdown(Cycles at, std::uint64_t tlbDropped,
              std::uint64_t pwcDropped)
    {
        push({at, 0, EventKind::Shootdown, Track::Os, tlbDropped,
              pwcDropped, 0});
    }

    /** A remote-core shootdown IPI (multi-core model): core
     *  @p initiator interrupts core @p target for @p cost cycles. */
    void
    ipi(Cycles at, std::uint64_t initiator, std::uint64_t target,
        Cycles cost)
    {
        push({at, 0, EventKind::Ipi, Track::Os, initiator, target,
              cost});
    }

    // -- Inspection ----------------------------------------------------

    /** Events currently retained in the ring. */
    std::size_t size() const;
    /** Events emitted over the sink's lifetime (retained + dropped). */
    std::uint64_t emitted() const { return total_; }
    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const;
    /** The @p index-th retained event in chronological order. */
    const TraceEvent &at(std::size_t index) const;
    /** Retained events of @p kind. */
    std::uint64_t countOf(EventKind kind) const;

    void clear();

    // -- Export --------------------------------------------------------

    /**
     * The full Chrome trace-event JSON document (traceEvents array
     * plus thread-name metadata; ts/dur are simulated cycles as µs).
     * @p extraEvents — a comma-joined run of pre-serialized trace
     * event objects (e.g. Timeline::chromeCounterEvents) — is spliced
     * into the array after the span events, so walk spans and counter
     * tracks share one document and one timebase. Empty (the default)
     * leaves the document byte-identical to the PR-6 exporter.
     */
    std::string
    chromeJson(const std::string &extraEvents = std::string()) const;

    /** Write chromeJson(@p extraEvents) to @p path (fatal on I/O
     *  failure). */
    void
    writeChromeJson(const std::string &path,
                    const std::string &extraEvents = std::string()) const;

    /** Human-readable per-kind event counts. */
    std::string summary() const;

  private:
    void
    push(const TraceEvent &event)
    {
        ring_[head_] = event;
        head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
        ++total_;
    }

    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0;       ///< next write slot
    std::uint64_t total_ = 0;    ///< lifetime emissions
};

} // namespace asap::obs

#endif // ASAP_OBS_TRACE_SINK_HH
