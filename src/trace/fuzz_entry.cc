#include "trace/fuzz_entry.hh"

#include <algorithm>
#include <new>

#include "common/status.hh"
#include "dyn/os_events.hh"
#include "trace/importer.hh"
#include "trace/setup_capture.hh"
#include "trace/trace_file.hh"

namespace asap
{

namespace
{

/** Accesses decoded per input. The address stream is a self-delimiting
 *  varint chain, so one bounded pass exercises every decode path; an
 *  unbounded loop would just make throughput proportional to the
 *  accessCount a hostile header claims. */
constexpr std::uint64_t maxFuzzAccesses = 4096;

/** Sink that only counts — importer parsing without conversion. */
class CountingSink : public RecordSink
{
  public:
    void record(const TraceRecord &) override { ++records_; }
    std::uint64_t records() const { return records_; }

  private:
    std::uint64_t records_ = 0;
};

} // namespace

void
fuzzTraceFileOneInput(const std::uint8_t *data, std::size_t size)
{
    try {
        TraceFile file(data, size, "<fuzz>");
        validateSetupOps(file.opsBegin(), file.opsEnd(), "<fuzz-ops>");
        if (file.hasEventOps())
            OsEventStream::decode(file.eventOpsBegin(),
                                  file.eventOpsEnd(), "<fuzz-events>");
        TraceCursor cursor(file);
        const std::uint64_t accesses =
            std::min(file.header().accessCount, maxFuzzAccesses);
        for (std::uint64_t i = 0; i < accesses; ++i)
            cursor.next();
    } catch (const StatusError &) {
        // Rejected input: the expected outcome for most mutations.
    } catch (const std::bad_alloc &) {
        // A hostile-but-well-formed header can still claim sizes the
        // validators cannot bound (e.g. a huge chunk count); failing
        // the allocation cleanly is acceptable, dying under ASan isn't.
    }
}

void
fuzzImportersOneInput(const std::uint8_t *data, std::size_t size)
{
    // Auto-detection must never crash regardless of what it sniffs.
    detectImporter(data, size);

    // Every parser sees every input — a ChampSim mutation that happens
    // to reach the gem5 parser is exactly the cross-format confusion
    // worth exercising.
    for (const TraceImporter *importer : traceImporters()) {
        CountingSink sink;
        try {
            importer->parse(data, size, "<fuzz>", sink);
        } catch (const StatusError &) {
        } catch (const std::bad_alloc &) {
        }
    }
}

} // namespace asap
