/**
 * @file
 * Time-resolved telemetry: deterministic epoch sampling over a run.
 *
 * End-of-run aggregates cannot show drift — fragmentation accumulating,
 * ASAP region contiguity decaying, shootdown storms bunching walk
 * latency. A Timeline divides the *measured* access stream into fixed
 * epochs (every N accesses — simulated-progress boundaries, never wall
 * clock, so sampling is bit-reproducible) and records per epoch:
 *
 *  - the per-epoch *delta* of every registered counter, computed by
 *    wrapping u64 subtraction against the previous boundary's snapshot
 *    so the deltas of all epochs sum to the lifetime value exactly —
 *    even for non-monotonic counters (buddy.freeFrames) and constants
 *    (tests/test_timeline.cc pins the identity);
 *  - interval walk/data latency percentiles, obtained by *diffing* the
 *    cumulative run histograms at consecutive boundaries (the
 *    histogram is bucket-wise additive, so cur - prev is exactly the
 *    interval's own distribution);
 *  - instantaneous occupancy gauges the counter registry cannot
 *    express: TLB/PWC valid-entry fractions, live slab PT nodes, buddy
 *    largest-free-order and fragmentation score, ASAP region
 *    contiguity, MSHR occupancy high-water.
 *
 * Integration shape (Simulator::run): the measure phase advances the
 * run's AccessStream in epoch-sized steps. Every workload draws
 * addresses one at a time from its generation core, so the chunking
 * replays the identical access stream — the access loop carries zero
 * new branches and a run with a Timeline attached and enabled is
 * bit-identical to one without (Golden suite). Like TraceSink, the probe is a null-by-default
 * pointer: detached costs nothing anywhere.
 *
 * Sinks: fsync'd JSONL and CSV artifacts (u64-safe decimal strings,
 * sweep-journal conventions; write failures are recoverable io_error
 * Statuses behind the "timeline-write" fault probe), and Perfetto
 * counter-track events for splicing into TraceSink::chromeJson so
 * walk spans and drift curves share one timebase.
 */

#ifndef ASAP_OBS_TIMELINE_HH
#define ASAP_OBS_TIMELINE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hh"
#include "common/types.hh"
#include "obs/histogram.hh"
#include "obs/registry.hh"

namespace asap::obs
{

/**
 * Bucket-wise difference of two cumulative histograms taken from the
 * same stream (@p cur sampled after @p prev): the distribution of
 * exactly the samples recorded between the two snapshots.
 */
Histogram histogramDiff(const Histogram &cur, const Histogram &prev);

/** One sampled epoch. Counter deltas/gauges align positionally with
 *  Timeline::counterNames() / gaugeNames(). */
struct TimelineEpoch
{
    std::uint64_t index = 0;
    /** Measured-access offsets covered: (startAccess, endAccess]. */
    std::uint64_t startAccess = 0;
    std::uint64_t endAccess = 0;
    /** Simulated-cycle stamps of the two boundaries. */
    Cycles startCycle = 0;
    Cycles endCycle = 0;

    /** Interval (not cumulative) walk/data latency shape. */
    std::uint64_t walkCount = 0;
    std::uint64_t walkP50 = 0, walkP90 = 0, walkP99 = 0, walkP999 = 0;
    std::uint64_t dataCount = 0;
    std::uint64_t dataP50 = 0, dataP99 = 0;

    /** Per-epoch counter deltas (wrapping u64: sums are exact). */
    std::vector<std::uint64_t> counterDeltas;
    /** Instantaneous gauge values at endAccess. */
    std::vector<std::uint64_t> gauges;
};

class Timeline
{
  public:
    /** Default epoch length when a caller asks for a timeline without
     *  choosing one (e.g. `run_inspect --timeline`): measure / 32 is
     *  computed by the caller; this is the floor. */
    static constexpr std::uint64_t minEpochAccesses = 1;

    /** @param epochAccesses measured accesses per epoch; 0 disables
     *  chunking (the Simulator then takes a single final sample). */
    explicit Timeline(std::uint64_t epochAccesses)
        : epochAccesses_(epochAccesses)
    {}

    bool enabled() const { return enabled_; }
    void setEnabled(bool enabled) { enabled_ = enabled; }

    std::uint64_t epochAccesses() const { return epochAccesses_; }

    /**
     * Record the epoch ending at measured access @p measuredAccesses
     * (simulated time @p now): @p counters and the cumulative
     * @p walkHist / @p dataHist are diffed against the previous
     * boundary; @p gauges are stored as-is. The first call fixes the
     * counter/gauge name lists; later calls must present the same
     * lists (same machine, same run) — a mismatch is a programming
     * error. No-op while disabled.
     */
    void
    sample(std::uint64_t measuredAccesses, Cycles now,
           const Counters &counters, const Histogram &walkHist,
           const Histogram &dataHist, const Counters &gauges);

    std::size_t epochCount() const { return epochs_.size(); }
    const TimelineEpoch &
    epoch(std::size_t index) const
    {
        return epochs_[index];
    }
    const std::vector<std::string> &counterNames() const
    { return counterNames_; }
    const std::vector<std::string> &gaugeNames() const
    { return gaugeNames_; }

    /** Cumulative counter values at the last sampled boundary
     *  (delta-sum identity checks). */
    const std::vector<std::uint64_t> &lastCounters() const
    { return prevCounters_; }

    // -- Export --------------------------------------------------------

    /** Header line (names, epoch length) + one JSON object per epoch.
     *  u64 values are decimal strings (journal conventions); counter
     *  deltas are *signed* decimal strings, wrapping u64 reinterpreted
     *  as i64, so shrinking counters read naturally. */
    std::string jsonl() const;

    /** One header row + one row per epoch (deltas signed, gauges
     *  unsigned; delta columns "d:<name>", gauge columns "g:<name>"). */
    std::string csv() const;

    /** Comma-joined Chrome trace-event counter objects (ph:"C", ts =
     *  epoch end cycle) for TraceSink::chromeJson's extraEvents:
     *  interval percentiles, every gauge, every counter delta. */
    std::string chromeCounterEvents() const;

    /**
     * Write jsonl()/csv() to @p path: fsync'd, behind the
     * "timeline-write" fault probe. Failures come back as recoverable
     * Statuses (io_error → Unavailable) — a failed timeline artifact
     * must not kill a run or a sweep cell, and the in-memory epochs
     * (and the run's own RunStats) stay intact for the caller.
     */
    Status writeJsonl(const std::string &path) const;
    Status writeCsv(const std::string &path) const;

  private:
    std::uint64_t epochAccesses_;
    bool enabled_ = false;

    std::vector<std::string> counterNames_;
    std::vector<std::string> gaugeNames_;
    std::vector<TimelineEpoch> epochs_;

    /** Previous boundary's cumulative state (zero before the first). */
    std::vector<std::uint64_t> prevCounters_;
    Histogram prevWalk_;
    Histogram prevData_;
    std::uint64_t prevAccess_ = 0;
    Cycles prevCycle_ = 0;
};

} // namespace asap::obs

#endif // ASAP_OBS_TIMELINE_HH
