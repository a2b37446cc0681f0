#include "dyn/os_events.hh"

#include <unordered_set>

#include "common/logging.hh"
#include "common/status.hh"
#include "trace/format.hh"

namespace asap
{

namespace
{

/** OsDynStats' fields in declaration order, with their counter names:
 *  the one list behind merge() and appendCounters(). */
struct DynField
{
    const char *name;
    std::uint64_t OsDynStats::*field;
};

constexpr DynField dynFields[] = {
    {"dyn.events", &OsDynStats::events},
    {"dyn.mmaps", &OsDynStats::mmaps},
    {"dyn.munmaps", &OsDynStats::munmaps},
    {"dyn.minorFaults", &OsDynStats::minorFaults},
    {"dyn.madviseFrees", &OsDynStats::madviseFrees},
    {"dyn.extends", &OsDynStats::extends},
    {"dyn.churnReleases", &OsDynStats::churnReleases},
    {"dyn.dataPagesFreed", &OsDynStats::dataPagesFreed},
    {"dyn.ptNodesFreed", &OsDynStats::ptNodesFreed},
    {"dyn.churnFramesReleased", &OsDynStats::churnFramesReleased},
    {"dyn.tlbInvalidated", &OsDynStats::tlbInvalidated},
    {"dyn.pwcInvalidated", &OsDynStats::pwcInvalidated},
    {"dyn.regionGrowthHoles", &OsDynStats::regionGrowthHoles},
    {"dyn.regionRelocations", &OsDynStats::regionRelocations},
    {"dyn.regionsReleased", &OsDynStats::regionsReleased},
    {"dyn.regionFramesReleased", &OsDynStats::regionFramesReleased},
};

} // namespace

void
OsDynStats::merge(const OsDynStats &other)
{
    for (const DynField &f : dynFields)
        this->*f.field += other.*f.field;
}

void
OsDynStats::appendCounters(
    std::vector<std::pair<std::string, std::uint64_t>> &counters) const
{
    for (const DynField &f : dynFields)
        counters.emplace_back(f.name, this->*f.field);
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
