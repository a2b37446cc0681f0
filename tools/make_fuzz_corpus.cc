/**
 * @file
 * Regenerates the checked-in fuzz seed corpus:
 *
 *   make_fuzz_corpus [outdir]        (default fuzz/corpus)
 *
 * writes small valid inputs for each fuzz target —
 * outdir/trace_file/ gets one seed per ASAPTRC2 shape (raw, compressed,
 * sampled, with an OS-event chunk) and outdir/importers/ one seed per
 * importer format. Valid seeds are what a mutating fuzzer wants; it
 * derives the broken variants itself. The checked-in
 * trace_file/v1_small.asaptrace is the legacy ASAPTRC1 seed, a
 * container this tool cannot write.
 *
 * Every seed is deterministic (fixed specs and seeds), so rerunning
 * the tool reproduces the corpus byte-for-byte and a diff in CI means
 * a format change, not noise.
 */

#include <cstdio>
#include <filesystem>
#include <string>

#include "common/status.hh"
#include "trace/convert.hh"
#include "trace/format.hh"
#include "trace/trace_file.hh"
#include "workloads/dynamic.hh"
#include "workloads/suite.hh"
#include "workloads/trace.hh"

using namespace asap;

namespace
{

/** Smallest spec that still exercises multi-VMA setup and churn. */
WorkloadSpec
seedSpec()
{
    WorkloadSpec spec;
    spec.name = "fuzzseed";
    spec.paperGb = 0.1;
    spec.residentPages = 900;
    spec.dataVmas = 2;
    spec.smallVmas = 3;
    spec.cyclesPerAccess = 4;
    spec.windowFraction = 0.5;
    spec.windowPages = 200;
    spec.nearFraction = 0.1;
    spec.seqFraction = 0.1;
    spec.linesPerPage = 2;
    spec.burstContinueProb = 0.5;
    spec.machineMemBytes = 256_MiB;
    spec.guestMemBytes = 64_MiB;
    spec.churnOps = 500;
    spec.churnMaxOrder = 2;
    return spec;
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    io_error_if(f == nullptr, "%s: cannot open for writing",
                path.c_str());
    const std::size_t written =
        std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    io_error_if(written != bytes.size(), "%s: short write",
                path.c_str());
    std::printf("  %-28s %zu bytes\n",
                path.substr(path.rfind('/') + 1).c_str(), bytes.size());
}

void
put16(std::string &out, std::uint16_t v)
{
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>(v >> 8));
}

/** One drmemtrace entry (type, size, pad, addr — 16 bytes LE). */
std::string
drmemRecord(std::uint16_t type, std::uint16_t size, std::uint64_t addr)
{
    std::string out;
    put16(out, type);
    put16(out, size);
    put32(out, 0);
    put64(out, addr);
    return out;
}

/** One ChampSim input_instr (ip, flags, 2 dest + 4 src VAs — 64B). */
std::string
champsimRecord(std::uint64_t ip, std::uint64_t dest0, std::uint64_t src0,
               std::uint64_t src1)
{
    std::string out;
    put64(out, ip);
    out.append(8, '\0');
    put64(out, dest0);
    put64(out, 0);
    put64(out, src0);
    put64(out, src1);
    put64(out, 0);
    put64(out, 0);
    return out;
}

void
appendProtoVarint(std::string &out, std::uint64_t field, std::uint64_t v)
{
    putVarint(out, (field << 3) | 0);
    putVarint(out, v);
}

void
appendGem5Message(std::string &out, const std::string &message)
{
    putVarint(out, message.size());
    out += message;
}

void
writeTraceSeeds(const std::string &dir)
{
    const WorkloadSpec spec = seedSpec();

    // Small chunks so a few hundred accesses still span several chunks
    // (multi-chunk decode, index walk, chunk re-basing).
    RecordOptions raw;
    raw.v2.chunkAccesses = 128;
    raw.v2.compress = false;
    const std::string rawPath = dir + "/v2_raw.asaptrace";
    recordTrace(spec, rawPath, 11, 400, raw);
    std::printf("  %-28s (ASAPTRC2, raw chunks)\n", "v2_raw.asaptrace");

    if (traceCompressionAvailable()) {
        RecordOptions deflate = raw;
        deflate.v2.compress = true;
        recordTrace(spec, dir + "/v2_deflate.asaptrace", 11, 400,
                    deflate);
        std::printf("  %-28s (ASAPTRC2, deflate chunks)\n",
                    "v2_deflate.asaptrace");
    } else {
        std::printf("  (no zlib: skipping v2_deflate.asaptrace)\n");
    }

    Trc2Options sampled;
    sampled.chunkAccesses = 64;
    sampled.compress = false;
    sampled.sampleInterval = 2;
    convertToV2(rawPath, dir + "/v2_sampled.asaptrace", sampled);
    std::printf("  %-28s (ASAPTRC2, 1-in-2 sampled)\n",
                "v2_sampled.asaptrace");

    RecordOptions events;
    events.v2.chunkAccesses = 256;
    events.v2.compress = false;
    recordTrace(withDynamics(spec, "tenants", 1.0, 300),
                dir + "/v2_events.asaptrace", 11, 1'000, events);
    std::printf("  %-28s (ASAPTRC2, OS-event chunk)\n",
                "v2_events.asaptrace");
}

void
writeImporterSeeds(const std::string &dir)
{
    writeBytes(dir + "/text.trace",
               "# fuzz seed: plain-text capture\n"
               "0x7f3a00001000\n"
               "0x7f3a00001040,16\n"
               "0x7f3a00002008,4,w\n"
               "139922431676416,8,r\n"
               "0x7ffee0000010\n");

    std::string drmem;
    drmem += drmemRecord(0, 8, 0x7000'0000);
    drmem += drmemRecord(10, 4, 0xdead'0000);
    drmem += drmemRecord(1, 16, 0x7000'2000);
    drmem += drmemRecord(0, 0, 0x7000'4000);
    writeBytes(dir + "/drmemtrace.bin", drmem);

    std::string champsim;
    champsim += champsimRecord(0x400000, 0x7100'1000, 0x7000'1000,
                               0x7000'2000);
    champsim += champsimRecord(0x400004, 0, 0, 0);
    champsim += champsimRecord(0x400008, 0x7100'3000, 0, 0);
    writeBytes(dir + "/champsim.bin", champsim);

    std::string gem5 = "gem5";
    {
        std::string header;
        const std::string objId = "system.monitor";
        putVarint(header, (1ull << 3) | 2);
        putVarint(header, objId.size());
        header += objId;
        appendProtoVarint(header, 2, 1);
        appendProtoVarint(header, 3, 1'000'000'000'000);
        appendGem5Message(gem5, header);
    }
    for (unsigned i = 0; i < 3; ++i) {
        std::string packet;
        appendProtoVarint(packet, 1, 100 * (i + 1));        // tick
        appendProtoVarint(packet, 2, i == 1 ? 4 : 1);       // cmd
        appendProtoVarint(packet, 3,
                          0x7f00'0000'1000ull + i * 0x1000); // addr
        appendProtoVarint(packet, 4, 64);                    // size
        appendGem5Message(gem5, packet);
    }
    writeBytes(dir + "/gem5.bin", gem5);
}

int
run(int argc, char **argv)
{
    const std::string outDir = argc > 1 ? argv[1] : "fuzz/corpus";
    const std::string traceDir = outDir + "/trace_file";
    const std::string importDir = outDir + "/importers";
    std::filesystem::create_directories(traceDir);
    std::filesystem::create_directories(importDir);

    std::printf("%s:\n", traceDir.c_str());
    writeTraceSeeds(traceDir);
    std::printf("%s:\n", importDir.c_str());
    writeImporterSeeds(importDir);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const StatusError &error) {
        std::fprintf(stderr, "make_fuzz_corpus: %s\n", error.what());
        return 1;
    }
}
