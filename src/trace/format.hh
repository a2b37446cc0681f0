/**
 * @file
 * Byte-level primitives shared by every ASAP trace container and
 * importer: little-endian scalar put/get, LEB128 varints with zigzag
 * signed mapping, a bounds-checked reader over an in-memory file image,
 * and a read-only memory-mapped file.
 *
 * The ASAPTRC2 container (layout in trace_file.hh, written by
 * src/trace/writer.cc) is built from these primitives; so is the legacy
 * ASAPTRC1 container, which is only read.
 *
 * Everything here treats input as hostile: traces can come from
 * external converters, so malformed bytes must raise a recoverable
 * input error (StatusError, see common/status.hh) with a clear message
 * — never read out of bounds, never kill the process. Callers that
 * want a Status instead of an exception go through the boundary
 * wrappers (TraceFile::open, tryImportTrace, ...).
 */

#ifndef ASAP_TRACE_FORMAT_HH
#define ASAP_TRACE_FORMAT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/status.hh"

namespace asap
{

// ---------------------------------------------------------------------------
// Container constants
// ---------------------------------------------------------------------------

constexpr char trc1Magic[8] = {'A', 'S', 'A', 'P', 'T', 'R', 'C', '1'};
constexpr char trc2Magic[8] = {'A', 'S', 'A', 'P', 'T', 'R', 'C', '2'};
/** Chunk-index marker preceding the ASAPTRC2 index block. */
constexpr char trc2IndexMagic[8] = {'A', 'S', 'A', 'P', 'I', 'D', 'X', '2'};
/** Fixed-size ASAPTRC2 footer marker (last 8 bytes of the file). */
constexpr char trc2EndMagic[8] = {'A', 'S', 'A', 'P', 'E', 'N', 'D', '2'};

constexpr std::uint32_t trc1Version = 1;
constexpr std::uint32_t trc2Version = 2;

/** Setup-op stream tags. */
constexpr std::uint8_t opMmap = 0;
constexpr std::uint8_t opTouchRun = 1;

/** Per-chunk storage codecs (ASAPTRC2). */
constexpr std::uint8_t chunkCodecRaw = 0;
constexpr std::uint8_t chunkCodecDeflate = 1;
/**
 * Not an address chunk: the payload is a serialized OS-event stream
 * (dyn/os_events.hh) that a dynamic run fires at access offsets during
 * replay. At most one per file, accesses = 0; readers lift it out of
 * the address-chunk list, so the cursor never sees it.
 */
constexpr std::uint8_t chunkCodecEventOps = 2;

/** Upper bound accepted for embedded string lengths (names). */
constexpr std::uint32_t maxTraceStringLen = 4096;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

void put32(std::string &out, std::uint32_t v);
void put64(std::string &out, std::uint64_t v);
void putVarint(std::string &out, std::uint64_t v);
void putString(std::string &out, const std::string &s);

std::uint64_t doubleToBits(double d);
double bitsToDouble(std::uint64_t bits);

inline std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/** Unchecked little-endian loads for fixed-record parsers that bound
 *  their reads themselves (importers over whole mapped records). */
inline std::uint16_t
loadLe16(const std::uint8_t *p)
{
    return static_cast<std::uint16_t>(
        p[0] | (static_cast<unsigned>(p[1]) << 8));
}

inline std::uint64_t
loadLe64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/**
 * Decode one LEB128 varint, never reading at or past @p end. The two
 * compares per byte are noise next to the simulated access consuming
 * the value; @p what names the file (and, for chunked containers, the
 * chunk) in the failure message. When @p base is given the message
 * also carries the byte offset of the bad varint relative to it, so a
 * corrupt stream is locatable with xxd. Malformed input throws
 * StatusError (DataLoss).
 */
inline std::uint64_t
decodeVarint(const std::uint8_t *&cursor, const std::uint8_t *end,
             const char *what, const std::uint8_t *base = nullptr)
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    const std::uint8_t *start = cursor;
    while (true) {
        if (cursor >= end) {
            if (base)
                input_error("%s: truncated varint at byte offset %llu",
                            what,
                            static_cast<unsigned long long>(start - base));
            input_error("%s: truncated varint", what);
        }
        const std::uint8_t byte = *cursor++;
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0)
            return v;
        shift += 7;
        if (shift > 63) {
            if (base)
                input_error(
                    "%s: varint exceeds 64 bits at byte offset %llu",
                    what,
                    static_cast<unsigned long long>(start - base));
            input_error("%s: varint exceeds 64 bits", what);
        }
    }
}

/** Bounds-checked sequential reader over an in-memory file image. */
class ByteReader
{
  public:
    ByteReader(const std::uint8_t *data, std::uint64_t size,
               const std::string &path)
        : data_(data), size_(size), path_(path)
    {}

    std::uint64_t offset() const { return offset_; }
    std::uint64_t remaining() const { return size_ - offset_; }

    const std::uint8_t *
    skip(std::uint64_t bytes)
    {
        need(bytes);
        const std::uint8_t *at = data_ + offset_;
        offset_ += bytes;
        return at;
    }

    std::uint8_t get8() { return *skip(1); }

    std::uint32_t
    get32()
    {
        const std::uint8_t *p = skip(4);
        std::uint32_t v = 0;
        for (unsigned i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
        return v;
    }

    std::uint64_t
    get64()
    {
        const std::uint8_t *p = skip(8);
        std::uint64_t v = 0;
        for (unsigned i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
        return v;
    }

    std::string
    getString()
    {
        const std::uint32_t len = get32();
        input_error_if(len > maxTraceStringLen,
                       "%s: implausible string length %u at offset %llu",
                       path_.c_str(), len,
                       static_cast<unsigned long long>(offset_ - 4));
        const std::uint8_t *p = skip(len);
        return std::string(reinterpret_cast<const char *>(p), len);
    }

  private:
    void
    need(std::uint64_t bytes)
    {
        // offset_ <= size_ always holds (only advanced here), so the
        // subtraction cannot wrap — unlike offset_ + bytes, which a
        // malicious section size near UINT64_MAX would overflow.
        input_error_if(bytes > size_ - offset_,
                       "%s: truncated trace (need %lu bytes at offset "
                       "%lu, file has %lu)",
                       path_.c_str(), static_cast<unsigned long>(bytes),
                       static_cast<unsigned long>(offset_),
                       static_cast<unsigned long>(size_));
    }

    const std::uint8_t *data_;
    std::uint64_t size_;
    const std::string &path_;
    std::uint64_t offset_ = 0;
};

// ---------------------------------------------------------------------------
// File access
// ---------------------------------------------------------------------------

/**
 * A read-only file image: mmap'd when possible, heap-read otherwise
 * (exotic filesystems). Shared by the container reader and by importers
 * parsing external capture files.
 */
class MappedFile
{
  public:
    /**
     * Open @p path. Failure throws StatusError — NotFound when the
     * file does not exist, Unavailable otherwise — with the path and
     * the OS error (strerror) in the message.
     */
    explicit MappedFile(const std::string &path);

    /**
     * Borrow an in-memory byte range instead of opening a file (no
     * copy, no ownership; @p name labels diagnostics). This is how the
     * fuzz harnesses and tests feed synthetic containers through the
     * full loading path.
     */
    MappedFile(const std::uint8_t *data, std::uint64_t size,
               std::string name);

    ~MappedFile();

    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    const std::string &path() const { return path_; }
    const std::uint8_t *data() const { return data_; }
    std::uint64_t size() const { return size_; }

  private:
    std::string path_;
    const std::uint8_t *data_ = nullptr;
    std::uint64_t size_ = 0;
    bool mapped_ = false;
    std::vector<std::uint8_t> fallback_;
};

/** Write @p bytes to @p path atomically enough for tooling; throws
 *  StatusError (Unavailable, with strerror) on open failure or short
 *  writes. */
void writeFileOrThrow(const std::string &path, const std::string &bytes);

} // namespace asap

#endif // ASAP_TRACE_FORMAT_HH
