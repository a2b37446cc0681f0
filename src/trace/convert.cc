#include "trace/convert.hh"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "exp/json.hh"
#include "obs/histogram.hh"
#include "sim/environment.hh"
#include "trace/setup_capture.hh"
#include "workloads/trace.hh"

namespace asap
{

namespace
{

/** Round up to a power of two (min 1). */
std::uint64_t
pow2Ceil(std::uint64_t x)
{
    std::uint64_t p = 1;
    while (p < x)
        p <<= 1;
    return p;
}

/** One synthesized VMA of an imported footprint. */
struct ImportRegion
{
    Vpn firstPage = 0;
    Vpn lastPage = 0;       ///< inclusive
    VirtAddr newBase = 0;   ///< VA the scratch System assigned

    std::uint64_t pages() const { return lastPage - firstPage + 1; }
};

/**
 * Pass-1 sink: accumulates the touched-page footprint. The page list is
 * compacted (sort + unique) whenever it doubles past the last compact,
 * so memory stays proportional to the *distinct* pages, not to the
 * reference count — imports of >100M-access captures must not buffer
 * the stream (the writer already streams; the front-end has to too).
 */
class FootprintSink : public RecordSink
{
  public:
    void
    record(const TraceRecord &r) override
    {
        ++references_;
        const Vpn first = vpnOf(r.va);
        const Vpn last = vpnOf(r.va + (r.size ? r.size - 1 : 0));
        for (Vpn page = first; page <= last; ++page)
            pages_.push_back(page);
        if (pages_.size() >= compactAt_)
            compact();
    }

    std::uint64_t references() const { return references_; }

    /** The sorted, distinct touched pages. */
    std::vector<Vpn>
    take()
    {
        compact();
        return std::move(pages_);
    }

  private:
    void
    compact()
    {
        std::sort(pages_.begin(), pages_.end());
        pages_.erase(std::unique(pages_.begin(), pages_.end()),
                     pages_.end());
        compactAt_ = std::max<std::size_t>(pages_.size() * 2,
                                           1u << 20);
    }

    std::vector<Vpn> pages_;
    std::size_t compactAt_ = 1u << 20;
    std::uint64_t references_ = 0;
};

std::string
basenameNoExt(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    const std::size_t start = slash == std::string::npos ? 0 : slash + 1;
    std::size_t dot = path.find_last_of('.');
    if (dot == std::string::npos || dot <= start)
        dot = path.size();
    return path.substr(start, dot - start);
}

} // namespace

Trc2Summary
convertToV2(const std::string &inPath, const std::string &outPath,
            const Trc2Options &options)
{
    TraceFile src(inPath);
    const std::string ops(
        reinterpret_cast<const char *>(src.opsBegin()),
        static_cast<std::size_t>(src.opsEnd() - src.opsBegin()));
    // A dynamic trace's OS-event stream survives re-containering
    // verbatim (event offsets are access counts, invariant under
    // re-chunking; sampling drops accesses, not events).
    const std::string eventOps(
        reinterpret_cast<const char *>(src.eventOpsBegin()),
        static_cast<std::size_t>(src.eventOpsEnd() -
                                 src.eventOpsBegin()));

    // header() carries representedAccesses from the source, so
    // re-containering a sampled trace keeps the original total and
    // RunStats scaling stays correct.
    Trc2Writer writer(outPath, src.header(), ops, options, eventOps);
    TraceCursor cursor(src);
    for (std::uint64_t i = 0; i < src.header().accessCount; ++i)
        writer.add(cursor.next());
    return writer.finish();
}

ImportSummary
importTrace(const TraceImporter &importer, const std::string &inPath,
            const std::string &outPath,
            const ImportOptions &importOptions,
            const Trc2Options &options)
{
    // Pass 1 over the capture: the touched-page footprint (accesses
    // may straddle a page boundary). parse() is deterministic over the
    // immutable mapping, so a second pass can rewrite the stream
    // without ever buffering it.
    MappedFile in(inPath);
    FootprintSink footprint;
    importer.parse(in.data(), in.size(), inPath.c_str(), footprint);
    input_error_if(footprint.references() == 0, "%s: no memory references",
                   inPath.c_str());
    const std::uint64_t references = footprint.references();
    const std::vector<Vpn> pages = footprint.take();

    // Coalesce the touched pages into VMAs, bridging small gaps.
    std::vector<ImportRegion> regions;
    for (const Vpn page : pages) {
        if (!regions.empty() &&
            page - regions.back().lastPage <=
                importOptions.maxVmaGapPages + 1) {
            regions.back().lastPage = page;
        } else {
            ImportRegion region;
            region.firstPage = page;
            region.lastPage = page;
            regions.push_back(region);
        }
    }

    std::uint64_t footprintBytes = 0;
    for (const ImportRegion &region : regions)
        footprintBytes += region.pages() * pageSize;

    // Header metadata / System sizing: enough physical memory for the
    // footprint, its page tables and allocator slack in any scenario.
    WorkloadSpec spec;
    spec.name = importOptions.name.empty() ? basenameNoExt(inPath)
                                           : importOptions.name;
    spec.cyclesPerAccess = importOptions.cyclesPerAccess;
    spec.paperGb = importOptions.paperGb;
    spec.residentPages = pages.size();
    spec.machineMemBytes =
        std::max<std::uint64_t>(pow2Ceil(footprintBytes * 4), 512_MiB);
    spec.guestMemBytes = spec.machineMemBytes / 2;
    spec.churnOps = 0;
    spec.guestChurnOps = 0;

    // Synthesize the setup stream by running the mmap/touch sequence a
    // replay will re-execute against a scratch System, capturing it and
    // reading back the deterministically assigned VMA bases.
    System system(makeSystemConfig(spec, EnvironmentOptions{}));
    SetupCapture capture;
    system.setRecorder(&capture);
    std::size_t pageAt = 0;
    for (ImportRegion &region : regions) {
        const std::uint64_t id = system.mmap(
            region.pages() * pageSize, spec.name,
            region.pages() >= importOptions.prefetchableMinPages);
        region.newBase = system.appSpace().vmas().byId(id)->start;
        // Prefault exactly the touched pages, in ascending order (the
        // demand-fault order a sequentially initialized region has),
        // one touchRange per run of consecutive pages.
        while (pageAt < pages.size() &&
               pages[pageAt] <= region.lastPage) {
            std::size_t runEnd = pageAt + 1;
            while (runEnd < pages.size() &&
                   pages[runEnd] == pages[runEnd - 1] + 1 &&
                   pages[runEnd] <= region.lastPage) {
                ++runEnd;
            }
            system.touchRange(region.newBase + (pages[pageAt] -
                                                region.firstPage) *
                                                   pageSize,
                              runEnd - pageAt);
            pageAt = runEnd;
        }
    }
    system.setRecorder(nullptr);
    const std::string setupOps = capture.take();

    TraceHeader meta;
    meta.name = spec.name;
    meta.cyclesPerAccess = spec.cyclesPerAccess;
    meta.paperGb = spec.paperGb;
    meta.residentPages = spec.residentPages;
    meta.machineMemBytes = spec.machineMemBytes;
    meta.guestMemBytes = spec.guestMemBytes;
    meta.churnOps = 0;
    meta.guestChurnOps = 0;
    meta.churnMaxOrder = spec.churnMaxOrder;
    meta.recordSeed = 0;

    // Pass 2: rewrite each reference into its region's assigned base
    // (intra-region offsets, and hence page offsets, are preserved)
    // and stream it straight into the writer.
    Trc2Writer writer(outPath, meta, setupOps, options);
    class RewriteSink : public RecordSink
    {
      public:
        RewriteSink(const std::vector<ImportRegion> &regions,
                    Trc2Writer &writer)
            : regions_(regions), writer_(writer)
        {}

        void
        record(const TraceRecord &r) override
        {
            const Vpn page = vpnOf(r.va);
            // Last region with firstPage <= page; coverage is
            // guaranteed because the regions were built from these
            // same references in pass 1.
            const auto it = std::upper_bound(
                regions_.begin(), regions_.end(), page,
                [](Vpn p, const ImportRegion &region) {
                    return p < region.firstPage;
                });
            const ImportRegion &region = *(it - 1);
            writer_.add(region.newBase +
                        (r.va - (region.firstPage << pageShift)));
        }

      private:
        const std::vector<ImportRegion> &regions_;
        Trc2Writer &writer_;
    } rewrite(regions, writer);
    importer.parse(in.data(), in.size(), inPath.c_str(), rewrite);

    ImportSummary summary;
    summary.references = references;
    summary.touchedPages = pages.size();
    summary.vmas = regions.size();
    summary.footprintBytes = footprintBytes;
    summary.container = writer.finish();
    return summary;
}

Status
tryConvertToV2(const std::string &inPath, const std::string &outPath,
               Trc2Summary &summary, const Trc2Options &options)
{
    return runToStatus(
        [&] { summary = convertToV2(inPath, outPath, options); });
}

Status
tryImportTrace(const TraceImporter &importer, const std::string &inPath,
               const std::string &outPath, ImportSummary &summary,
               const ImportOptions &importOptions,
               const Trc2Options &options)
{
    return runToStatus([&] {
        summary = importTrace(importer, inPath, outPath, importOptions,
                              options);
    });
}

std::string
traceSummary(const TraceFile &trace)
{
    const TraceHeader &header = trace.header();
    std::string out = strprintf(
        "%s: ASAPTRC%u '%s'\n"
        "  accesses       %lu stored / %lu represented"
        " (sample interval %u)\n"
        "  file           %lu bytes (%.2f bytes/stored access)\n"
        "  setup ops      %lu bytes\n"
        "  sizing         %lu resident pages, machine %lu MiB,"
        " guest %lu MiB\n",
        trace.path().c_str(), trace.version(), header.name.c_str(),
        static_cast<unsigned long>(header.accessCount),
        static_cast<unsigned long>(header.representedAccesses),
        header.sampleInterval,
        static_cast<unsigned long>(trace.fileBytes()),
        static_cast<double>(trace.fileBytes()) /
            static_cast<double>(header.accessCount),
        static_cast<unsigned long>(trace.opsEnd() - trace.opsBegin()),
        static_cast<unsigned long>(header.residentPages),
        static_cast<unsigned long>(header.machineMemBytes >> 20),
        static_cast<unsigned long>(header.guestMemBytes >> 20));
    std::uint64_t raw = 0, stored = 0, deflated = 0;
    for (const TraceChunk &chunk : trace.chunks()) {
        raw += chunk.rawBytes;
        stored += chunk.storedBytes;
        deflated += chunk.codec == chunkCodecDeflate ? 1 : 0;
    }
    if (header.chunkAccesses == 0)
        out += "  chunks         1 legacy ASAPTRC1 stream\n";
    else
        out += strprintf("  chunks         %zu x %u accesses, %lu of them "
                         "deflated\n",
                         trace.chunks().size(), header.chunkAccesses,
                         static_cast<unsigned long>(deflated));
    out += strprintf("  stream         %lu raw -> %lu stored bytes (%.2fx)\n",
                     static_cast<unsigned long>(raw),
                     static_cast<unsigned long>(stored),
                     stored ? static_cast<double>(raw) /
                                  static_cast<double>(stored)
                            : 0.0);
    return out;
}

namespace
{

std::string
histLine(const char *label, const obs::Histogram &hist)
{
    return strprintf("  %-21s p50 %-10lu p90 %-10lu p99 %-10lu "
                     "max %-10lu (%lu samples)\n",
                     label,
                     static_cast<unsigned long>(hist.p50()),
                     static_cast<unsigned long>(hist.p90()),
                     static_cast<unsigned long>(hist.p99()),
                     static_cast<unsigned long>(hist.percentile(1.0)),
                     static_cast<unsigned long>(hist.count()));
}

/** One scan of the stored stream, shared by the text and JSON
 *  formatters. */
struct AccessStats
{
    obs::Histogram stride;    ///< |Δva| between consecutive accesses
    obs::Histogram reuse;     ///< accesses since the same page's last touch
    obs::Histogram touches;   ///< touches per distinct page
    std::uint64_t accesses = 0;
    std::size_t footprintPages = 0;
};

AccessStats
scanAccessStats(const TraceFile &trace)
{
    AccessStats stats;
    std::unordered_map<Vpn, std::uint64_t> lastTouch;
    std::unordered_map<Vpn, std::uint64_t> touchCount;

    TraceCursor cursor(trace);
    stats.accesses = trace.header().accessCount;
    VirtAddr prev = 0;
    for (std::uint64_t i = 0; i < stats.accesses; ++i) {
        const VirtAddr va = cursor.next();
        if (i > 0) {
            stats.stride.sample(va > prev ? va - prev : prev - va);
        }
        prev = va;
        const Vpn page = va >> pageShift;
        const auto last = lastTouch.find(page);
        if (last != lastTouch.end())
            stats.reuse.sample(i - last->second);
        lastTouch[page] = i;
        ++touchCount[page];
    }
    for (const auto &[page, count] : touchCount)
        stats.touches.sample(count);
    stats.footprintPages = touchCount.size();
    return stats;
}

} // namespace

std::string
traceAccessStats(const TraceFile &trace)
{
    const AccessStats stats = scanAccessStats(trace);
    std::string out = strprintf("%s: access-pattern statistics "
                                "(%lu stored accesses)\n",
                                trace.path().c_str(),
                                static_cast<unsigned long>(
                                    stats.accesses));
    out += histLine("stride (bytes)", stats.stride);
    out += histLine("reuse interval (accs)", stats.reuse);
    out += histLine("touches per page", stats.touches);
    out += strprintf("  footprint             %zu distinct pages "
                     "(%lu KiB)\n",
                     stats.footprintPages,
                     static_cast<unsigned long>(
                         (stats.footprintPages * pageSize) >> 10));
    return out;
}

std::string
traceAccessStatsJson(const TraceFile &trace)
{
    const AccessStats stats = scanAccessStats(trace);
    const TraceHeader &header = trace.header();
    // u64 values are decimal strings (journal conventions: doubles
    // lose integer precision past 2^53).
    const auto u64 = [](std::uint64_t value) {
        return exp::Json(std::to_string(value));
    };
    const auto hist = [&u64](const obs::Histogram &h) {
        exp::Json json = exp::Json::object();
        json.set("p50", u64(h.p50()));
        json.set("p90", u64(h.p90()));
        json.set("p99", u64(h.p99()));
        json.set("max", u64(h.percentile(1.0)));
        json.set("count", u64(h.count()));
        return json;
    };
    exp::Json json = exp::Json::object();
    json.set("trace", trace.path());
    json.set("name", header.name);
    json.set("statsVersion", 1);
    json.set("accesses", u64(stats.accesses));
    json.set("representedAccesses", u64(header.representedAccesses));
    json.set("sampleInterval", static_cast<double>(header.sampleInterval));
    json.set("footprintPages", u64(stats.footprintPages));
    json.set("footprintBytes", u64(stats.footprintPages * pageSize));
    json.set("strideBytes", hist(stats.stride));
    json.set("reuseAccesses", hist(stats.reuse));
    json.set("touchesPerPage", hist(stats.touches));
    return json.dump() + "\n";
}

bool
replayStatsMatch(const std::string &pathA, const std::string &pathB,
                 std::uint64_t warmupAccesses,
                 std::uint64_t measureAccesses, std::string &report)
{
    RunConfig run;
    run.warmupAccesses = warmupAccesses;
    run.measureAccesses = measureAccesses;
    run.seed = 7;

    RunStats stats[2];
    const std::string *paths[2] = {&pathA, &pathB};
    for (int i = 0; i < 2; ++i) {
        const WorkloadSpec spec = traceSpec(*paths[i]);
        System system(makeSystemConfig(spec, EnvironmentOptions{}));
        TraceReplayWorkload workload(*paths[i]);
        workload.setup(system);
        Machine machine(system, makeMachineConfig());
        Simulator simulator(system, machine, workload);
        stats[i] = simulator.run(run);
    }

    report.clear();
    for (const std::string &line : stats[0].diff(stats[1]))
        report += "  " + line + "\n";
    return report.empty();
}

} // namespace asap
