/**
 * @file
 * Trace-ingestion pipelines built on the container reader/writer and
 * the importer framework:
 *
 *   - convertToV2: re-container any readable trace (ASAPTRC2, or a
 *     legacy ASAPTRC1 file) into ASAPTRC2 with chosen chunking /
 *     compression / sampling.
 *   - importTrace: parse an external capture (text, ChampSim,
 *     DynamoRIO memtrace), synthesize the setup stream from its
 *     address footprint, rewrite the references into the replay
 *     System's deterministic VMA layout, and write ASAPTRC2.
 *   - traceSummary / replayStatsMatch: tooling support for
 *     trace_convert --stats / --verify.
 *
 * Everything here is a library function so tests drive the exact code
 * the CLI runs.
 */

#ifndef ASAP_TRACE_CONVERT_HH
#define ASAP_TRACE_CONVERT_HH

#include <cstdint>
#include <string>

#include "trace/importer.hh"
#include "trace/trace_file.hh"
#include "trace/writer.hh"

namespace asap
{

/**
 * Re-container @p inPath (ASAPTRC2 or ASAPTRC1) into ASAPTRC2 at
 * @p outPath.
 * The metadata block, setup ops and address stream carry over
 * unchanged; sampling in @p options drops chunks of the *output*
 * chunking. Re-containering an already-sampled trace keeps its original
 * represented-access count, so scaling stays correct.
 */
Trc2Summary convertToV2(const std::string &inPath,
                        const std::string &outPath,
                        const Trc2Options &options = {});

/** Knobs for importing an external capture. */
struct ImportOptions
{
    /** Workload name stored in the header (default: the input file's
     *  basename, extension stripped). */
    std::string name;
    /** Compute cycles between accesses for the execution-time model. */
    unsigned cyclesPerAccess = 4;
    /** Paper-scale dataset the capture stands in for (informational). */
    double paperGb = 0.0;
    /** Touched pages separated by a gap of at most this many untouched
     *  pages coalesce into one VMA. Large enough to bridge the holes a
     *  real allocator leaves inside one logical region, small enough to
     *  keep unrelated mappings (heap vs stack vs libs) apart. */
    std::uint64_t maxVmaGapPages = 64;
    /** VMAs at least this large are marked prefetchable (dataset-like;
     *  ASAP range registers cover them). */
    std::uint64_t prefetchableMinPages = 256;
};

struct ImportSummary
{
    std::uint64_t references = 0;    ///< records parsed
    std::uint64_t touchedPages = 0;  ///< distinct pages referenced
    std::uint64_t vmas = 0;          ///< regions synthesized
    std::uint64_t footprintBytes = 0;///< VMA bytes (incl. bridged gaps)
    Trc2Summary container;
};

/**
 * Import @p inPath using @p importer into an ASAPTRC2 file at
 * @p outPath. See importer.hh for how the setup stream is inferred and
 * the references are rewritten; the resulting file replays through
 * TraceReplayWorkload / "trace:<path>" like any recorded trace.
 */
ImportSummary importTrace(const TraceImporter &importer,
                          const std::string &inPath,
                          const std::string &outPath,
                          const ImportOptions &importOptions = {},
                          const Trc2Options &options = {});

/**
 * Status-returning boundaries over convertToV2 / importTrace: any
 * StatusError (corrupt input, I/O failure) or allocation failure comes
 * back as an error Status instead of propagating. The summary output
 * parameter is untouched on error.
 */
Status tryConvertToV2(const std::string &inPath,
                      const std::string &outPath, Trc2Summary &summary,
                      const Trc2Options &options = {});
Status tryImportTrace(const TraceImporter &importer,
                      const std::string &inPath,
                      const std::string &outPath, ImportSummary &summary,
                      const ImportOptions &importOptions = {},
                      const Trc2Options &options = {});

/** Human-readable multi-line summary of a trace file (--stats). */
std::string traceSummary(const TraceFile &trace);

/**
 * Access-pattern statistics of the stored address stream (--stats):
 * stride, reuse-interval and per-page touch-count distributions
 * (obs::Histogram percentiles) plus the distinct-page footprint. One
 * decode pass over the stream.
 */
std::string traceAccessStats(const TraceFile &trace);

/**
 * The same statistics as traceAccessStats as one machine-readable JSON
 * object (trailing newline): header identity, footprint, and the
 * stride/reuse/touch histograms' percentile summaries. u64 values are
 * decimal strings (journal conventions); parse back with exp::Json.
 */
std::string traceAccessStatsJson(const TraceFile &trace);

/**
 * Replay both traces on a fresh native System with the paper-default
 * machine and compare every RunStats part (RunStats::diff). @p report
 * receives the diff, one indented line per differing field. Only
 * meaningful when both files carry the same full stream (a sampled
 * trace legitimately diverges from its source).
 */
bool replayStatsMatch(const std::string &pathA, const std::string &pathB,
                      std::uint64_t warmupAccesses,
                      std::uint64_t measureAccesses, std::string &report);

} // namespace asap

#endif // ASAP_TRACE_CONVERT_HH
