#include "dyn/os_events.hh"

#include <unordered_set>

#include "common/logging.hh"
#include "common/status.hh"
#include "trace/format.hh"

namespace asap
{

namespace
{

/** Constant-initialized, so it has no exit-time destructor to race a
 *  sweep worker that is still running when the process exits. */
constexpr std::array<OsDynStats::Field, 16> dynFields = {{
    {"events", &OsDynStats::events},
    {"mmaps", &OsDynStats::mmaps},
    {"munmaps", &OsDynStats::munmaps},
    {"minorFaults", &OsDynStats::minorFaults},
    {"madviseFrees", &OsDynStats::madviseFrees},
    {"extends", &OsDynStats::extends},
    {"churnReleases", &OsDynStats::churnReleases},
    {"dataPagesFreed", &OsDynStats::dataPagesFreed},
    {"ptNodesFreed", &OsDynStats::ptNodesFreed},
    {"churnFramesReleased", &OsDynStats::churnFramesReleased},
    {"tlbInvalidated", &OsDynStats::tlbInvalidated},
    {"pwcInvalidated", &OsDynStats::pwcInvalidated},
    {"regionGrowthHoles", &OsDynStats::regionGrowthHoles},
    {"regionRelocations", &OsDynStats::regionRelocations},
    {"regionsReleased", &OsDynStats::regionsReleased},
    {"regionFramesReleased", &OsDynStats::regionFramesReleased},
}};
static_assert(sizeof(OsDynStats) ==
                  dynFields.size() * sizeof(std::uint64_t),
              "every OsDynStats field needs a dynFields entry");

} // namespace

const std::array<OsDynStats::Field, 16> &
OsDynStats::fields()
{
    return dynFields;
}

void
OsDynStats::appendCounters(obs::Counters &counters) const
{
    for (const Field &f : fields())
        counters.emplace_back(std::string("dyn.") + f.name, this->*f.member);
}

void
OsEventStream::add(const OsEvent &event)
{
    panic_if(!events_.empty() && event.atAccess < events_.back().atAccess,
             "OS events must be added in non-decreasing access order "
             "(%lu after %lu)",
             static_cast<unsigned long>(event.atAccess),
             static_cast<unsigned long>(events_.back().atAccess));
    panic_if(event.kind == OsEventKind::Mmap && event.bytes == 0,
             "mmap event without a size");
    panic_if(event.kind == OsEventKind::ReleaseChurn && event.pages > 1000,
             "release-churn permille %lu > 1000",
             static_cast<unsigned long>(event.pages));
    events_.push_back(event);
}

std::string
OsEventStream::encode() const
{
    std::string out;
    putVarint(out, events_.size());
    std::uint64_t prevAt = 0;
    for (const OsEvent &event : events_) {
        out.push_back(static_cast<char>(event.kind));
        putVarint(out, event.atAccess - prevAt);
        prevAt = event.atAccess;
        putVarint(out, event.handle == noOsHandle ? 0 : event.handle + 1);
        putVarint(out, event.addr);
        putVarint(out, event.pages);
        putVarint(out, event.bytes);
        out.push_back(event.prefetchable ? 1 : 0);
    }
    return out;
}

OsEventStream
OsEventStream::decode(const std::uint8_t *begin, const std::uint8_t *end,
                      const char *path)
{
    OsEventStream stream;
    const std::uint8_t *cursor = begin;
    const std::uint64_t count = decodeVarint(cursor, end, path, begin);
    // Each event costs at least 7 bytes; an absurd count means a
    // corrupt stream, not a big one.
    input_error_if(count > static_cast<std::uint64_t>(end - cursor),
                   "%s: implausible OS-event count %lu", path,
                   static_cast<unsigned long>(count));
    std::unordered_set<std::uint64_t> defined;
    std::uint64_t at = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t eventOffset =
            static_cast<std::uint64_t>(cursor - begin);
        input_error_if(cursor >= end,
                       "%s: truncated OS-event stream at byte offset "
                       "%llu",
                       path,
                       static_cast<unsigned long long>(eventOffset));
        OsEvent event;
        const std::uint8_t kind = *cursor++;
        input_error_if(kind > static_cast<std::uint8_t>(
                                  OsEventKind::ReleaseChurn),
                       "%s: unknown OS-event kind %u at byte offset "
                       "%llu",
                       path, static_cast<unsigned>(kind),
                       static_cast<unsigned long long>(eventOffset));
        event.kind = static_cast<OsEventKind>(kind);
        const std::uint64_t atDelta = decodeVarint(cursor, end, path,
                                                   begin);
        input_error_if(atDelta > UINT64_MAX - at,
                       "%s: OS-event access offset overflows at byte "
                       "offset %llu",
                       path,
                       static_cast<unsigned long long>(eventOffset));
        at += atDelta;
        event.atAccess = at;
        const std::uint64_t handlePlus1 = decodeVarint(cursor, end, path,
                                                       begin);
        event.handle = handlePlus1 == 0 ? noOsHandle : handlePlus1 - 1;
        event.addr = decodeVarint(cursor, end, path, begin);
        event.pages = decodeVarint(cursor, end, path, begin);
        event.bytes = decodeVarint(cursor, end, path, begin);
        input_error_if(cursor >= end,
                       "%s: truncated OS-event stream at byte offset "
                       "%llu",
                       path,
                       static_cast<unsigned long long>(eventOffset));
        event.prefetchable = *cursor++ != 0;

        // Validate here what add() treats as programming errors, so
        // corrupt external bytes surface as input errors, not aborts.
        if (event.kind == OsEventKind::Mmap) {
            input_error_if(event.bytes == 0,
                           "%s: mmap event without a size at byte "
                           "offset %llu",
                           path,
                           static_cast<unsigned long long>(eventOffset));
            input_error_if(event.handle == noOsHandle,
                           "%s: mmap event without a handle", path);
            input_error_if(!defined.insert(event.handle).second,
                           "%s: OS-event handle %lu defined twice", path,
                           static_cast<unsigned long>(event.handle));
        } else if (event.handle != noOsHandle) {
            input_error_if(!defined.count(event.handle),
                           "%s: OS event uses undefined handle %lu",
                           path,
                           static_cast<unsigned long>(event.handle));
        }
        input_error_if(event.kind == OsEventKind::ReleaseChurn &&
                           event.pages > 1000,
                       "%s: release-churn permille %lu > 1000 at byte "
                       "offset %llu",
                       path, static_cast<unsigned long>(event.pages),
                       static_cast<unsigned long long>(eventOffset));
        stream.add(event);
    }
    input_error_if(cursor != end,
                   "%s: %lu bytes left over after the OS-event stream",
                   path, static_cast<unsigned long>(end - cursor));
    return stream;
}

} // namespace asap
