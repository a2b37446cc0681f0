/**
 * @file
 * Deterministic OS-event streams: the dynamic-memory side of a workload
 * (paper Section 3.7 — the behaviours that stress ASAP's reserved
 * regions), expressed as a list of events fired at fixed access-count
 * offsets of the simulated stream.
 *
 * The static model is setup-then-run: every VMA exists before the first
 * measured access and no mapping ever changes. An OsEventStream breaks
 * that: mid-run mmap/munmap (tenant arrival/departure), minor faults,
 * madvise(MADV_DONTNEED) releases, heap extension (in-place PT-region
 * growth, relocation, holes) and machine-level churn release. Events
 * are data — a plain ordered list keyed by "fire after N consumed
 * accesses" — so a dynamic run is exactly as deterministic and
 * replayable as a static one: the stream serializes into the ASAPTRC2
 * container (event-op chunk) and a replay re-fires every event at the
 * same offset.
 *
 * VMAs created *by events* are referenced through small dense handles
 * (the mmap event that creates a VMA names its handle; later events use
 * it), since real VMA ids are assigned only when the event is applied.
 * Events against the workload's own (setup-time) VMAs use absolute
 * virtual addresses, which are deterministic across record and replay
 * because VMA placement is.
 *
 * Serialized encoding (shared by the trace container):
 *   varint count, then per event:
 *     u8 kind, varint atAccess delta, varint handle + 1 (0 = none),
 *     varint addr, varint pages, varint bytes, u8 prefetchable.
 */

#ifndef ASAP_DYN_OS_EVENTS_HH
#define ASAP_DYN_OS_EVENTS_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "obs/registry.hh"

namespace asap
{

enum class OsEventKind : std::uint8_t
{
    /** Create a VMA of `bytes` (defines `handle`). */
    Mmap = 0,
    /** Destroy the VMA behind `handle` (frames, PT nodes, ASAP region;
     *  the simulator issues the targeted shootdown). */
    Munmap = 1,
    /** Demand-fault `pages` pages starting at `addr` (absolute VA, or
     *  byte offset within the `handle` VMA). */
    MinorFault = 2,
    /** madvise(MADV_DONTNEED) `pages` pages starting at `addr` — frees
     *  frames and emptied PT nodes, keeps the VMA; refault on touch. */
    MadviseFree = 3,
    /** Grow the VMA containing `addr` (or behind `handle`) by `bytes`:
     *  heap brk driving ASAP region extension/relocation/holes. */
    Extend = 4,
    /** A churn-holding co-tenant departs: release `pages` permille of
     *  the machine's churn-held blocks. */
    ReleaseChurn = 5,
};

/** `handle` value meaning "no dynamic VMA; addr is an absolute VA". */
constexpr std::uint64_t noOsHandle = ~std::uint64_t{0};

struct OsEvent
{
    /** Fire once this many accesses of the run have been consumed
     *  (warmup + measure combined; 0 fires before the first access). */
    std::uint64_t atAccess = 0;
    OsEventKind kind = OsEventKind::MinorFault;
    /** Dynamic-VMA handle, or noOsHandle (see file comment). */
    std::uint64_t handle = noOsHandle;
    /** Absolute VA — or byte offset into the handle's VMA. */
    VirtAddr addr = 0;
    /** Page count (MinorFault/MadviseFree); permille (ReleaseChurn). */
    std::uint64_t pages = 0;
    /** Byte size (Mmap/Extend). */
    std::uint64_t bytes = 0;
    /** Mmap only: create the VMA as an ASAP prefetch target. */
    bool prefetchable = false;
};

/**
 * What a run's OS-event stream did (part of RunStats): event counts,
 * the OS work they triggered, the targeted shootdowns they issued, and
 * the ASAP region-lifecycle consequences (coverage loss vs. uptime —
 * growth slots that fell back to buddy holes, frames relocated to
 * extend regions in place, regions torn down by munmap). All zero for
 * a static run.
 */
struct OsDynStats
{
    std::uint64_t events = 0;
    std::uint64_t mmaps = 0;
    std::uint64_t munmaps = 0;
    std::uint64_t minorFaults = 0;       ///< pages demand-faulted
    std::uint64_t madviseFrees = 0;
    std::uint64_t extends = 0;
    std::uint64_t churnReleases = 0;

    std::uint64_t dataPagesFreed = 0;
    std::uint64_t ptNodesFreed = 0;
    std::uint64_t churnFramesReleased = 0;

    std::uint64_t tlbInvalidated = 0;    ///< TLB entries shot down
    std::uint64_t pwcInvalidated = 0;    ///< PWC entries shot down

    // ASAP region lifecycle over the run (deltas of the app-dimension
    // allocator counters; filled by AccessStream).
    std::uint64_t regionGrowthHoles = 0;
    std::uint64_t regionRelocations = 0;
    std::uint64_t regionsReleased = 0;
    std::uint64_t regionFramesReleased = 0;

    struct Field
    {
        const char *name;   ///< the member's name; counter "dyn.<name>"
        std::uint64_t OsDynStats::*member;
    };
    /** Every field in declaration order: the one table behind merge(),
     *  appendCounters(), RunStats::diff() and the journal's "dyn"
     *  object. */
    static const std::array<Field, 16> &fields();

    /** Add @p other field by field (every field is a sum). */
    void
    merge(const OsDynStats &other)
    {
        for (const Field &f : fields())
            this->*f.member += other.*f.member;
    }

    /** Append every field as a `dyn.<field>` counter, in declaration
     *  order: the tail of a RunStats::counters list. */
    void appendCounters(obs::Counters &counters) const;
};

/**
 * An ordered (non-decreasing atAccess) list of OS events. Built by the
 * churn-profile generators (src/workloads/dynamic.hh) or decoded from a
 * trace; consumed once per run by OsDynamics.
 */
class OsEventStream
{
  public:
    /** Append an event; atAccess must be >= the last event's. */
    void add(const OsEvent &event);

    const std::vector<OsEvent> &events() const { return events_; }
    bool empty() const { return events_.empty(); }
    std::size_t size() const { return events_.size(); }

    /** Serialize (encoding in the file comment). */
    std::string encode() const;

    /** Parse an encoded stream; throws StatusError (DataLoss, naming
     *  @p path) on malformed bytes, undefined handles, or decreasing
     *  offsets. */
    static OsEventStream decode(const std::uint8_t *begin,
                                const std::uint8_t *end,
                                const char *path);

  private:
    std::vector<OsEvent> events_;
};

} // namespace asap

#endif // ASAP_DYN_OS_EVENTS_HH
