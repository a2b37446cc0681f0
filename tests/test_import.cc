/**
 * @file
 * Importer-framework tests: parser correctness for the three built-in
 * formats, registry/auto-detection, footprint-to-VMA synthesis, the
 * address-rewrite invariants (page offsets preserved, every rewritten
 * access inside a synthesized VMA), import determinism, and the golden
 * replay of a text fixture with pinned RunStats.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/json.hh"
#include "expect_status.hh"
#include "sim/environment.hh"
#include "trace/convert.hh"
#include "trace/trace_file.hh"
#include "workloads/trace.hh"

using namespace asap;

namespace
{

class TempFile
{
  public:
    explicit TempFile(std::string path) : path_(std::move(path)) {}
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

    void
    write(const std::string &bytes) const
    {
        std::FILE *f = std::fopen(path_.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
        std::fclose(f);
    }

  private:
    std::string path_;
};

class CollectSink : public RecordSink
{
  public:
    void record(const TraceRecord &r) override { records.push_back(r); }
    std::vector<TraceRecord> records;
};

std::vector<TraceRecord>
parseBytes(const TraceImporter &importer, const std::string &bytes)
{
    CollectSink sink;
    importer.parse(reinterpret_cast<const std::uint8_t *>(bytes.data()),
                   bytes.size(), "<test>", sink);
    return sink.records;
}

void
append16(std::string &out, std::uint16_t v)
{
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>(v >> 8));
}

std::string
drmemRecord(std::uint16_t type, std::uint16_t size, std::uint64_t addr)
{
    std::string out;
    append16(out, type);
    append16(out, size);
    put32(out, 0);
    put64(out, addr);
    return out;
}

/** A ChampSim input_instr with the given memory slots (0 = unused). */
std::string
champsimRecord(std::uint64_t ip, const std::uint64_t (&dest)[2],
               const std::uint64_t (&src)[4])
{
    std::string out;
    put64(out, ip);
    out.append(8, '\0');   // branch flags + registers
    for (const std::uint64_t va : dest)
        put64(out, va);
    for (const std::uint64_t va : src)
        put64(out, va);
    return out;
}

// gem5 protobuf packet-trace fixture helpers: hand-rolled wire format
// (varint fields; a framed header message, then Packet messages).
void
appendProtoVarint(std::string &out, std::uint64_t field, std::uint64_t v)
{
    putVarint(out, (field << 3) | 0);   // wire type 0 = varint
    putVarint(out, v);
}

void
appendGem5Message(std::string &out, const std::string &message)
{
    putVarint(out, message.size());
    out += message;
}

std::string
gem5Header()
{
    std::string msg;
    const std::string objId = "system.monitor";
    putVarint(msg, (1ull << 3) | 2);    // field 1, length-delimited
    putVarint(msg, objId.size());
    msg += objId;
    appendProtoVarint(msg, 2, 1);                   // ver
    appendProtoVarint(msg, 3, 1'000'000'000'000);   // tick_freq
    return msg;
}

std::string
gem5Packet(std::uint64_t tick, std::uint64_t cmd, std::uint64_t addr,
           std::uint64_t size)
{
    std::string msg;
    appendProtoVarint(msg, 1, tick);
    appendProtoVarint(msg, 2, cmd);
    appendProtoVarint(msg, 3, addr);
    appendProtoVarint(msg, 4, size);
    return msg;
}

/** All stored addresses of a trace file. */
std::vector<VirtAddr>
decodeAll(const std::string &path)
{
    const TraceFile file(path);
    TraceCursor cursor(file);
    std::vector<VirtAddr> out(file.header().accessCount);
    for (VirtAddr &va : out)
        va = cursor.next();
    return out;
}

std::string
readAll(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::string bytes;
    char buffer[4096];
    std::size_t n;
    while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0)
        bytes.append(buffer, n);
    std::fclose(f);
    return bytes;
}

/**
 * Deterministic text fixture: three regions with different locality
 * (strided scan, windowed hot set, scattered tail), addresses drawn
 * from a fixed LCG. ~12000 references over ~1300 pages.
 */
std::string
goldenTextFixture()
{
    std::uint64_t x = 88172645463325252ull;
    const auto rnd = [&x]() {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        return x >> 33;
    };
    std::string out = "# golden import fixture\n";
    char line[64];
    const std::uint64_t heap = 0x7f3a00000000ull;
    const std::uint64_t table = 0x7f3b00000000ull;
    const std::uint64_t stack = 0x7ffee0000000ull;
    for (unsigned i = 0; i < 12'000; ++i) {
        std::uint64_t va;
        const std::uint64_t pick = rnd() % 100;
        if (pick < 40) {
            va = heap + (i % 1'000) * 4'096 + (rnd() % 512) * 8;
        } else if (pick < 80) {
            va = table + (rnd() % 256) * 4'096 + (rnd() % 4'096);
        } else {
            va = stack + (rnd() % 16) * 4'096 + (rnd() % 4'096);
        }
        std::snprintf(line, sizeof(line), "0x%llx,8,%c\n",
                      static_cast<unsigned long long>(va),
                      pick % 7 == 0 ? 'w' : 'r');
        out += line;
    }
    return out;
}

} // namespace

TEST(Importers, TextParsesLines)
{
    const std::string fixture =
        "# comment line\n"
        "\n"
        "0x1000\n"
        "4096,16\n"
        "0x2008,4,w\n"
        "  8192 , parsed? no: spaces only lead/trail\n";
    // The last line has trailing garbage; parse the valid prefix only.
    const std::string valid =
        "# comment line\n\n0x1000\n4096,16\n0x2008,4,w\n";
    const auto records = parseBytes(textImporter(), valid);
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].va, 0x1000u);
    EXPECT_EQ(records[0].size, 8u);
    EXPECT_FALSE(records[0].write);
    EXPECT_EQ(records[1].va, 4096u);
    EXPECT_EQ(records[1].size, 16u);
    EXPECT_EQ(records[2].va, 0x2008u);
    EXPECT_EQ(records[2].size, 4u);
    EXPECT_TRUE(records[2].write);

    testutil::expectStatusError(
        [&] { parseBytes(textImporter(), fixture); },
        StatusCode::DataLoss, "trailing garbage");
    testutil::expectStatusError(
        [&] { parseBytes(textImporter(), "zzz\n"); },
        "expected an address");
}

TEST(Importers, DrMemtraceParsesRecords)
{
    std::string bytes;
    bytes += drmemRecord(0, 8, 0x7000'0000);       // read
    bytes += drmemRecord(10, 4, 0xdead'0000);      // instr fetch: skip
    bytes += drmemRecord(1, 16, 0x7000'2000);      // write
    bytes += drmemRecord(0, 0, 0x7000'4000);       // size clamps to 1
    const auto records = parseBytes(drmemtraceImporter(), bytes);
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].va, 0x7000'0000u);
    EXPECT_FALSE(records[0].write);
    EXPECT_EQ(records[1].va, 0x7000'2000u);
    EXPECT_EQ(records[1].size, 16u);
    EXPECT_TRUE(records[1].write);
    EXPECT_EQ(records[2].size, 1u);

    testutil::expectStatusError(
        [&] { parseBytes(drmemtraceImporter(), bytes.substr(0, 20)); },
        "16-byte memtrace");
}

TEST(Importers, ChampSimParsesMemorySlots)
{
    std::string bytes;
    // Loads before stores, zero slots skipped.
    bytes += champsimRecord(0x400000, {0x7100'1000, 0},
                            {0x7000'1000, 0x7000'2000, 0, 0});
    bytes += champsimRecord(0x400004, {0, 0}, {0, 0, 0, 0});
    bytes += champsimRecord(0x400008, {0x7100'3000, 0}, {0, 0, 0, 0});
    const auto records = parseBytes(champsimImporter(), bytes);
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records[0].va, 0x7000'1000u);
    EXPECT_FALSE(records[0].write);
    EXPECT_EQ(records[1].va, 0x7000'2000u);
    EXPECT_EQ(records[2].va, 0x7100'1000u);
    EXPECT_TRUE(records[2].write);
    EXPECT_EQ(records[3].va, 0x7100'3000u);
    EXPECT_TRUE(records[3].write);

    testutil::expectStatusError(
        [&] { parseBytes(champsimImporter(), bytes.substr(0, 100)); },
        "64-byte ChampSim");
}

TEST(Importers, Gem5ParsesPacketMessages)
{
    std::string bytes = "gem5";
    appendGem5Message(bytes, gem5Header());
    appendGem5Message(bytes, gem5Packet(100, 1, 0x7f00'0000'1000, 64));
    appendGem5Message(bytes, gem5Packet(200, 4, 0x7f00'0000'2040, 8));
    // Optional fields newer gem5 versions append must be skipped: a
    // fixed64 (field 9) and a length-delimited blob (field 10).
    {
        std::string msg = gem5Packet(300, 2, 0x7f00'0000'3000, 0);
        putVarint(msg, (9ull << 3) | 1);
        msg.append(8, '\x42');
        putVarint(msg, (10ull << 3) | 2);
        putVarint(msg, 3);
        msg += "abc";
        appendGem5Message(bytes, msg);
    }
    // A command-only message (no addr) contributes no reference.
    {
        std::string msg;
        appendProtoVarint(msg, 1, 400);
        appendProtoVarint(msg, 2, 1);
        appendGem5Message(bytes, msg);
    }

    const auto records = parseBytes(gem5Importer(), bytes);
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].va, 0x7f00'0000'1000ull);
    EXPECT_EQ(records[0].size, 64u);
    EXPECT_FALSE(records[0].write);        // ReadReq
    EXPECT_EQ(records[1].va, 0x7f00'0000'2040ull);
    EXPECT_TRUE(records[1].write);         // WriteReq
    EXPECT_EQ(records[2].va, 0x7f00'0000'3000ull);
    EXPECT_EQ(records[2].size, 4u);        // size 0 defaults to a word
    EXPECT_FALSE(records[2].write);        // ReadResp counts as a read
}

TEST(Importers, Gem5SniffNeedsMagicAndFraming)
{
    std::string good = "gem5";
    appendGem5Message(good, gem5Header());
    EXPECT_TRUE(gem5Importer().sniff(
        reinterpret_cast<const std::uint8_t *>(good.data()),
        good.size()));
    EXPECT_EQ(detectImporter(
                  reinterpret_cast<const std::uint8_t *>(good.data()),
                  good.size()),
              &gem5Importer());

    // Magic alone is not enough: the first frame must fit the file.
    std::string truncated = "gem5";
    putVarint(truncated, 1000);
    EXPECT_FALSE(gem5Importer().sniff(
        reinterpret_cast<const std::uint8_t *>(truncated.data()),
        truncated.size()));
    const std::string wrong = "notagem5trace---";
    EXPECT_FALSE(gem5Importer().sniff(
        reinterpret_cast<const std::uint8_t *>(wrong.data()),
        wrong.size()));
}

TEST(Importers, Gem5ImportRoundTrip)
{
    // End to end: fixture file -> importTrace -> replayable container
    // whose stream has one reference per packet, rebased but with page
    // offsets preserved.
    std::string bytes = "gem5";
    appendGem5Message(bytes, gem5Header());
    const std::uint64_t base = 0x7fa0'0000'0000ull;
    constexpr unsigned packets = 600;
    for (unsigned i = 0; i < packets; ++i) {
        const std::uint64_t va = base + (i % 37) * 4'096 + (i % 64) * 8;
        appendGem5Message(bytes,
                          gem5Packet(i * 10, i % 5 == 0 ? 4 : 1, va, 8));
    }
    const TempFile in("gem5_fixture.bin");
    const TempFile out("gem5_fixture.trc2");
    in.write(bytes);

    const ImportSummary summary =
        importTrace(gem5Importer(), in.path(), out.path(),
                    ImportOptions{}, Trc2Options{});
    EXPECT_EQ(summary.references, packets);
    EXPECT_EQ(summary.touchedPages, 37u);

    const auto vas = decodeAll(out.path());
    ASSERT_EQ(vas.size(), packets);
    for (unsigned i = 0; i < packets; ++i) {
        const std::uint64_t original =
            base + (i % 37) * 4'096 + (i % 64) * 8;
        EXPECT_EQ(vas[i] & pageOffsetMask, original & pageOffsetMask)
            << i;
    }
}

TEST(Importers, RegistryAndDetection)
{
    ASSERT_GE(traceImporters().size(), 4u);
    EXPECT_EQ(importerByName("text"), &textImporter());
    EXPECT_EQ(importerByName("champsim"), &champsimImporter());
    EXPECT_EQ(importerByName("drmemtrace"), &drmemtraceImporter());
    EXPECT_EQ(importerByName("gem5"), &gem5Importer());
    EXPECT_EQ(importerByName("nope"), nullptr);

    const std::string text = "0x1000,8,r\n0x2000\n";
    EXPECT_EQ(detectImporter(
                  reinterpret_cast<const std::uint8_t *>(text.data()),
                  text.size()),
              &textImporter());

    std::string drmem;
    for (unsigned i = 0; i < 8; ++i)
        drmem += drmemRecord(i % 2, 8, 0x7000'0000 + i * 64);
    EXPECT_EQ(detectImporter(reinterpret_cast<const std::uint8_t *>(
                                 drmem.data()),
                             drmem.size()),
              &drmemtraceImporter());

    // ChampSim records with canonical instruction pointers are NOT a
    // plausible drmemtrace stream (non-zero padding words), so the
    // looser ChampSim sniff gets them.
    std::string champ;
    champ += champsimRecord(0x7f00'1234'5678, {0x7100'1000, 0},
                            {0x7000'1000, 0, 0, 0});
    EXPECT_EQ(detectImporter(reinterpret_cast<const std::uint8_t *>(
                                 champ.data()),
                             champ.size()),
              &champsimImporter());
}

/** Footprint coalescing: pages with small gaps merge into one VMA,
 *  distant regions split; rewritten addresses keep page offsets and
 *  land inside the synthesized VMAs. */
TEST(ImportPipeline, FootprintRewriteInvariants)
{
    const TempFile in("import_invariants.txt");
    const TempFile out("import_invariants.trc2");
    std::string text;
    std::vector<std::uint64_t> vas;
    // Region A: pages 0..63 of one base with gaps of <= 3 pages.
    for (unsigned i = 0; i < 64; ++i)
        vas.push_back(0x7f00'0000'0000ull + i * 3 * 4'096 + (i % 4'096));
    // Region B: far away.
    for (unsigned i = 0; i < 32; ++i)
        vas.push_back(0x7fee'0000'0000ull + i * 4'096 + 128);
    for (const std::uint64_t va : vas)
        text += strprintf("0x%llx\n",
                          static_cast<unsigned long long>(va));
    in.write(text);

    const ImportSummary summary =
        importTrace(textImporter(), in.path(), out.path());
    EXPECT_EQ(summary.references, vas.size());
    EXPECT_EQ(summary.vmas, 2u);
    EXPECT_EQ(summary.touchedPages, 64u + 32u);

    const std::vector<VirtAddr> rewritten = decodeAll(out.path());
    ASSERT_EQ(rewritten.size(), vas.size());
    for (std::size_t i = 0; i < vas.size(); ++i) {
        EXPECT_EQ(rewritten[i] & pageOffsetMask,
                  vas[i] & pageOffsetMask)
            << "page offset at " << i;
    }
    // Relative layout inside each region is preserved exactly.
    for (std::size_t i = 1; i < 64; ++i)
        EXPECT_EQ(rewritten[i] - rewritten[0], vas[i] - vas[0]);
    for (std::size_t i = 65; i < vas.size(); ++i)
        EXPECT_EQ(rewritten[i] - rewritten[64], vas[i] - vas[64]);

    // Replaying the setup stream produces VMAs containing every
    // rewritten access.
    const WorkloadSpec spec = traceSpec(out.path());
    System system(makeSystemConfig(spec, EnvironmentOptions{}));
    TraceReplayWorkload replay(out.path());
    replay.setup(system);
    const auto vmas = system.appSpace().vmas().all();
    ASSERT_EQ(vmas.size(), 2u);
    for (const VirtAddr va : rewritten) {
        bool inside = false;
        for (const auto *vma : vmas)
            inside = inside || (va >= vma->start && va < vma->end);
        EXPECT_TRUE(inside) << "stray access " << std::hex << va;
    }
}

/** Importing the same capture twice yields byte-identical output. */
TEST(ImportPipeline, Deterministic)
{
    const TempFile in("import_deterministic.txt");
    const TempFile outA("import_deterministic_a.trc2");
    const TempFile outB("import_deterministic_b.trc2");
    in.write(goldenTextFixture());
    importTrace(textImporter(), in.path(), outA.path());
    importTrace(textImporter(), in.path(), outB.path());
    EXPECT_EQ(readAll(outA.path()), readAll(outB.path()));
}

/**
 * Golden import: the text fixture replays with pinned RunStats. These
 * literals pin the whole ingestion pipeline — parser, footprint
 * synthesis, address rewrite, container encode/decode, and the replay
 * itself; regenerate them (the failure output prints actuals) only for
 * intentional model or pipeline changes.
 */
TEST(ImportPipeline, GoldenTextReplayPinned)
{
    const TempFile in("import_golden.txt");
    const TempFile out("import_golden.trc2");
    in.write(goldenTextFixture());

    ImportOptions importOptions;
    importOptions.name = "golden_text";
    importOptions.cyclesPerAccess = 3;
    const ImportSummary summary =
        importTrace(textImporter(), in.path(), out.path(),
                    importOptions);
    EXPECT_EQ(summary.references, 12'000u);

    RunConfig run;
    run.warmupAccesses = 2'000;
    run.measureAccesses = 8'000;
    run.seed = 7;
    const WorkloadSpec spec = traceSpec(out.path());
    EXPECT_EQ(spec.name, "golden_text");
    System system(makeSystemConfig(spec, EnvironmentOptions{}));
    TraceReplayWorkload replay(out.path());
    replay.setup(system);
    Machine machine(system, makeMachineConfig());
    Simulator simulator(system, machine, replay);
    const RunStats stats = simulator.run(run);

    EXPECT_EQ(stats.accesses, 8'000u);
    EXPECT_EQ(stats.tlbL1Hits, 1'260u);
    EXPECT_EQ(stats.tlbL2Hits, 6'388u);
    EXPECT_EQ(stats.tlbMisses, 352u);
    EXPECT_EQ(stats.faults, 0u);
    EXPECT_EQ(stats.walkLatency.count(), 352u);
    EXPECT_EQ(stats.walkLatency.sum(), 4'776u);
    EXPECT_EQ(stats.totalCycles, 1'289'953u);
    EXPECT_EQ(stats.walkCycles, 4'776u);
    EXPECT_EQ(stats.dataCycles, 1'261'177u);
    EXPECT_EQ(stats.computeCycles, 24'000u);
}

// ---------------------------------------------------------------------------
// Access-pattern statistics (trace_convert --stats)
// ---------------------------------------------------------------------------

namespace
{

/** Four accesses over three contiguous pages: two one-page strides, a
 *  two-page stride back, and one reuse of the first page. */
const char *const statsCapture =
    "0x7f0000000000\n0x7f0000001000\n0x7f0000002000\n0x7f0000000000\n";

} // namespace

TEST(TraceStats, JsonEscapesNameAndPathAndParsesBack)
{
    const TempFile in("stats_json.txt");
    const TempFile out("stats_q\"uote\\.trc2");
    in.write(statsCapture);
    ImportOptions options;
    options.name = "we\"ird\\name";
    importTrace(textImporter(), in.path(), out.path(), options);

    const std::string text = traceAccessStatsJson(TraceFile(out.path()));
    const std::optional<exp::Json> json = exp::Json::parse(text);
    ASSERT_TRUE(json.has_value()) << text;
    EXPECT_EQ(json->find("trace")->asString(), out.path());
    EXPECT_EQ(json->find("name")->asString(), options.name);
    EXPECT_EQ(json->find("accesses")->asString(), "4");
    EXPECT_EQ(json->find("footprintPages")->asString(), "3");
    EXPECT_EQ(json->find("touchesPerPage")->find("p50")->asString(), "1");
}

TEST(TraceStats, TextSummarizesTheStream)
{
    const TempFile in("stats_text.txt");
    const TempFile out("stats_text.trc2");
    in.write(statsCapture);
    importTrace(textImporter(), in.path(), out.path());

    const std::string text = traceAccessStats(TraceFile(out.path()));
    EXPECT_NE(text.find(out.path() + ": access-pattern statistics "
                                     "(4 stored accesses)\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("  reuse interval (accs) p50 3 "),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("  footprint             3 distinct pages "
                        "(12 KiB)\n"),
              std::string::npos)
        << text;
}
