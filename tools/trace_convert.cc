/**
 * @file
 * Trace-ingestion CLI: convert between the ASAP containers and import
 * external captures (see src/trace/).
 *
 *   trace_convert in.asaptrace out.trc2                # re-container
 *   trace_convert in.asaptrace out.trc2 --sample 1/8   # sampled stream
 *   trace_convert mem.log out.trc2 --from text         # import
 *   trace_convert champ.bin out.trc2 --from champsim --name mcached
 *   trace_convert --stats some.trc2                    # inspect only
 *
 * Conversions from an ASAP container preserve the metadata block and
 * setup stream; imports synthesize them from the observed footprint
 * (src/trace/importer.hh). --verify replays input and output on a
 * fresh native System and diffs RunStats — the round-trip guarantee,
 * checked in CI.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "trace/convert.hh"
#include "trace/format.hh"

using namespace asap;

namespace
{

int
usage(const char *argv0)
{
    std::string importers;
    for (const TraceImporter *importer : traceImporters())
        importers += strprintf("                  %-11s %s\n",
                               importer->formatName(),
                               importer->description());
    std::fprintf(
        stderr,
        "usage: %s <in> <out> [options]\n"
        "       %s --stats <in>\n"
        "\n"
        "Converts an ASAP trace (ASAPTRC2 or legacy ASAPTRC1) or an\n"
        "external capture into the chunked ASAPTRC2 container.\n"
        "\n"
        "  --from FMT      input format (default: auto-detect):\n"
        "                  asap        an ASAPTRC1/ASAPTRC2 container\n"
        "%s"
        "  --chunk N       accesses per chunk (default 65536)\n"
        "  --sample 1/N    keep every N-th chunk (sampled-stream mode;\n"
        "                  RunStats of a replay scale by ~N)\n"
        "  --no-compress   store raw chunks (default: deflate when it\n"
        "                  shrinks; %s)\n"
        "  --stats         print a summary of the files\n"
        "  --json          with --stats: one machine-readable JSON\n"
        "                  object instead of text (u64s as decimal\n"
        "                  strings)\n"
        "  --verify        replay in and out, diff RunStats (full\n"
        "                  conversions only — sampling changes the\n"
        "                  stream by design)\n"
        "\n"
        "Import metadata (external captures only):\n"
        "  --name S        workload name (default: input basename)\n"
        "  --cycles N      compute cycles per access (default 4)\n"
        "  --paper-gb X    paper-scale dataset size, informational\n"
        "  --vma-gap N     max untouched-page gap folded into one VMA\n"
        "                  (default 64)\n",
        argv0, argv0, importers.c_str(),
        traceCompressionAvailable() ? "zlib available"
                                    : "built WITHOUT zlib");
    return 2;
}

bool
isAsapContainer(const std::uint8_t *data, std::size_t size)
{
    return size >= sizeof(trc1Magic) &&
           (std::memcmp(data, trc1Magic, sizeof(trc1Magic)) == 0 ||
            std::memcmp(data, trc2Magic, sizeof(trc2Magic)) == 0);
}

/** The real tool; main() below maps StatusError to exit(1). */
int
run(int argc, char **argv)
{
    std::string in, out, from, name;
    Trc2Options options;
    ImportOptions importOptions;
    bool stats = false, statsJson = false, verify = false;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--from") == 0 && i + 1 < argc) {
            from = argv[++i];
        } else if (std::strcmp(arg, "--chunk") == 0 && i + 1 < argc) {
            options.chunkAccesses =
                static_cast<std::uint32_t>(std::strtoul(argv[++i],
                                                        nullptr, 0));
        } else if (std::strcmp(arg, "--sample") == 0 && i + 1 < argc) {
            const char *spec = argv[++i];
            unsigned one = 0, n = 0;
            if (std::sscanf(spec, "%u/%u", &one, &n) != 2 || one != 1 ||
                n == 0) {
                std::fprintf(stderr,
                             "trace_convert: --sample wants 1/N, got "
                             "'%s'\n",
                             spec);
                return 2;
            }
            options.sampleInterval = n;
        } else if (std::strcmp(arg, "--no-compress") == 0) {
            options.compress = false;
        } else if (std::strcmp(arg, "--stats") == 0) {
            stats = true;
        } else if (std::strcmp(arg, "--json") == 0) {
            statsJson = true;
        } else if (std::strcmp(arg, "--verify") == 0) {
            verify = true;
        } else if (std::strcmp(arg, "--name") == 0 && i + 1 < argc) {
            importOptions.name = argv[++i];
        } else if (std::strcmp(arg, "--cycles") == 0 && i + 1 < argc) {
            importOptions.cyclesPerAccess =
                static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (std::strcmp(arg, "--paper-gb") == 0 && i + 1 < argc) {
            importOptions.paperGb = std::atof(argv[++i]);
        } else if (std::strcmp(arg, "--vma-gap") == 0 && i + 1 < argc) {
            importOptions.maxVmaGapPages =
                std::strtoull(argv[++i], nullptr, 0);
        } else if (arg[0] == '-') {
            return usage(argv[0]);
        } else if (in.empty()) {
            in = arg;
        } else if (out.empty()) {
            out = arg;
        } else {
            return usage(argv[0]);
        }
    }
    if (in.empty())
        return usage(argv[0]);

    if (statsJson && !stats)
        return usage(argv[0]);

    // Inspect-only mode: --stats with a single path.
    if (out.empty()) {
        if (!stats)
            return usage(argv[0]);
        const TraceFile trace(in);
        if (statsJson) {
            std::fputs(traceAccessStatsJson(trace).c_str(), stdout);
        } else {
            std::fputs(traceSummary(trace).c_str(), stdout);
            std::fputs(traceAccessStats(trace).c_str(), stdout);
        }
        return 0;
    }

    // Resolve the input format.
    const TraceImporter *importer = nullptr;
    if (from.empty() || from == "auto") {
        const MappedFile probe(in);
        if (!isAsapContainer(probe.data(), probe.size())) {
            importer = detectImporter(probe.data(), probe.size());
            if (!importer) {
                std::fprintf(stderr,
                             "trace_convert: cannot detect the format "
                             "of %s; use --from\n",
                             in.c_str());
                return 2;
            }
        }
    } else if (from != "asap") {
        importer = importerByName(from);
        if (!importer) {
            std::fprintf(stderr,
                         "trace_convert: unknown format '%s'\n",
                         from.c_str());
            return 2;
        }
    }

    if (importer) {
        const ImportSummary summary =
            importTrace(*importer, in, out, importOptions, options);
        std::printf(
            "%s: imported %lu %s references -> %lu accesses in %lu "
            "chunks (%lu VMAs over %lu pages, %.2f bytes/access)\n",
            out.c_str(), static_cast<unsigned long>(summary.references),
            importer->formatName(),
            static_cast<unsigned long>(summary.container.storedAccesses),
            static_cast<unsigned long>(summary.container.chunkCount),
            static_cast<unsigned long>(summary.vmas),
            static_cast<unsigned long>(summary.touchedPages),
            static_cast<double>(summary.container.fileBytes) /
                static_cast<double>(summary.container.storedAccesses));
    } else {
        const Trc2Summary summary = convertToV2(in, out, options);
        std::printf(
            "%s: %lu of %lu accesses in %lu chunks, %lu bytes "
            "(%.2f bytes/stored access, stream %.2fx)\n",
            out.c_str(),
            static_cast<unsigned long>(summary.storedAccesses),
            static_cast<unsigned long>(summary.representedAccesses),
            static_cast<unsigned long>(summary.chunkCount),
            static_cast<unsigned long>(summary.fileBytes),
            static_cast<double>(summary.fileBytes) /
                static_cast<double>(summary.storedAccesses),
            summary.storedStreamBytes
                ? static_cast<double>(summary.rawStreamBytes) /
                      static_cast<double>(summary.storedStreamBytes)
                : 0.0);
    }

    if (stats) {
        const TraceFile trace(out);
        if (statsJson) {
            std::fputs(traceAccessStatsJson(trace).c_str(), stdout);
        } else {
            std::fputs(traceSummary(trace).c_str(), stdout);
            std::fputs(traceAccessStats(trace).c_str(), stdout);
        }
    }

    if (verify) {
        if (options.sampleInterval != 1 || importer) {
            std::fprintf(stderr,
                         "trace_convert: --verify only applies to full "
                         "container conversions\n");
            return 2;
        }
        std::string report;
        if (!replayStatsMatch(in, out, /*warmupAccesses=*/2'000,
                              /*measureAccesses=*/10'000, report)) {
            std::fprintf(stderr,
                         "trace_convert: replay MISMATCH between %s "
                         "and %s:\n%s",
                         in.c_str(), out.c_str(), report.c_str());
            return 1;
        }
        std::printf("verify: %s and %s replay identically\n", in.c_str(),
                    out.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Loading/parsing errors are recoverable StatusErrors in the
    // library; a CLI turns them back into the classic exit(1) UX.
    try {
        return run(argc, argv);
    } catch (const StatusError &error) {
        std::fprintf(stderr, "trace_convert: %s\n", error.what());
        return 1;
    }
}
