/**
 * @file
 * Reader for ASAP trace containers.
 *
 * ASAPTRC2 (written by src/trace/writer.cc) splits the address stream
 * into self-contained chunks with a seekable end-of-file index,
 * optional per-chunk compression and a sampled-stream mode. TraceFile
 * loads it, and the legacy ASAPTRC1 container too, behind one
 * interface; TraceCursor decodes the chunks, so TraceReplayWorkload,
 * the sweeps and perf_hotpath accept either file.
 *
 * ASAPTRC2 layout (little-endian):
 *
 *   magic     "ASAPTRC2" (8 bytes)
 *   u32       version (2)
 *   u32       reserved (0)
 *   <metadata block>:
 *     str  workload name, u32 computeCyclesPerAccess, f64 paperGb,
 *     u64  residentPages, u64 machineMemBytes, u64 guestMemBytes,
 *     u64  churnOps, u64 guestChurnOps, u32 churnMaxOrder,
 *     u64  recordSeed
 *   u64       opBytes, then the setup op stream
 *             (src/trace/setup_capture.hh encoding)
 *   u64       representedAccesses   (pre-sampling total)
 *   u32       sampleInterval        (1 = full stream; N = 1-in-N chunks)
 *   u32       chunkTargetAccesses   (accesses per chunk, last may be
 *                                    shorter)
 *   -- chunk payloads, back to back (u64 dataOffset = here) --
 *   -- index --
 *   magic     "ASAPIDX2" (8 bytes)
 *   per chunk: u64 payload offset (absolute), u32 storedBytes,
 *              u32 rawBytes, u32 accesses, u8 codec, u64 firstVa
 *   -- footer (fixed 24 bytes at EOF) --
 *   u64       indexOffset
 *   u64       chunkCount
 *   magic     "ASAPEND2" (8 bytes)
 *
 * Each chunk's delta stream re-bases from VA 0 (its first varint holds
 * the full first address), so chunks decode independently and sampled
 * traces — which omit whole chunks — replay without desyncing.
 * Sampled traces carry representedAccesses > accessCount; RunStats
 * measured over the sampled stream can be scaled by
 * representedAccesses/accessCount.
 *
 * ASAPTRC1 is read only: "ASAPTRC1", u32 version (1), u32 reserved, the
 * same metadata block and setup ops, then u64 accessCount, u64
 * streamBytes and one zigzag-varint delta stream from VA 0. That stream
 * is exactly one raw ASAPTRC2 chunk, and loads as one.
 */

#ifndef ASAP_TRACE_TRACE_FILE_HH
#define ASAP_TRACE_TRACE_FILE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hh"
#include "common/types.hh"
#include "trace/format.hh"

namespace asap
{

/** Decoded trace metadata (the fixed part of either header). */
struct TraceHeader
{
    std::string name;
    unsigned cyclesPerAccess = 0;
    double paperGb = 0.0;
    std::uint64_t residentPages = 0;
    std::uint64_t machineMemBytes = 0;
    std::uint64_t guestMemBytes = 0;
    std::uint64_t churnOps = 0;
    std::uint64_t guestChurnOps = 0;
    unsigned churnMaxOrder = 0;
    std::uint64_t recordSeed = 0;

    /** Accesses stored in this file (what a replay loops over). */
    std::uint64_t accessCount = 0;
    /** Accesses the original capture represented. Equal to accessCount
     *  for full traces; larger for sampled ones (scale RunStats by
     *  representedAccesses / accessCount). */
    std::uint64_t representedAccesses = 0;
    /** 1 = full stream; N = every N-th chunk was recorded. */
    std::uint32_t sampleInterval = 1;
    /** Target accesses per chunk; 0 for an ASAPTRC1 file, whose one
     *  chunk is its whole stream. */
    std::uint32_t chunkAccesses = 0;
};

/** One address chunk. The ASAPTRC2 index stores the sizes as u32; they
 *  are u64 here because an ASAPTRC1 stream, loaded as one chunk, can
 *  pass 4 GiB or 2^32 accesses. */
struct TraceChunk
{
    std::uint64_t offset = 0;       ///< payload offset in the file
    std::uint64_t storedBytes = 0;  ///< bytes on disk (post-codec)
    std::uint64_t rawBytes = 0;     ///< decoded varint-block bytes
    std::uint64_t accesses = 0;     ///< addresses in this chunk
    std::uint8_t codec = chunkCodecRaw;
    /** First address (index metadata; 0 for an ASAPTRC1 stream). */
    VirtAddr firstVa = 0;
};

/**
 * A loaded (mmap-backed, read-only) trace file. Cheap to open
 * per Environment; concurrent readers share the page cache. Malformed
 * files throw StatusError (DataLoss, with the offending byte offset) —
 * headers, section lengths, the chunk index and the footer are all
 * validated at load. Use open() for a Status-returning boundary.
 */
class TraceFile
{
  public:
    explicit TraceFile(const std::string &path);

    /** Load a container already in memory (borrowed bytes; @p name
     *  labels diagnostics). The fuzz harness entry point. */
    TraceFile(const std::uint8_t *data, std::uint64_t size,
              std::string name);

    /** Status-returning boundary: never throws, never exits. */
    static StatusOr<std::unique_ptr<TraceFile>>
    open(const std::string &path);

    TraceFile(const TraceFile &) = delete;
    TraceFile &operator=(const TraceFile &) = delete;

    const TraceHeader &header() const { return header_; }
    const std::string &path() const { return file_.path(); }
    std::uint64_t fileBytes() const { return file_.size(); }
    /** Base of the file image (for absolute-offset diagnostics). */
    const std::uint8_t *fileData() const { return file_.data(); }
    unsigned version() const { return version_; }

    /** Raw setup-op bytes [begin, end). */
    const std::uint8_t *opsBegin() const
    { return file_.data() + opsOffset_; }
    const std::uint8_t *opsEnd() const { return opsBegin() + opsBytes_; }

    /** Serialized OS-event stream (dyn/os_events.hh) from the
     *  event-op chunk; empty for static traces. */
    bool hasEventOps() const { return eventBytes_ != 0; }
    const std::uint8_t *eventOpsBegin() const
    { return file_.data() + eventOffset_; }
    const std::uint8_t *eventOpsEnd() const
    { return eventOpsBegin() + eventBytes_; }

    /** The address chunks, never empty (one for an ASAPTRC1 file). */
    const std::vector<TraceChunk> &chunks() const { return chunks_; }

    /** Stored payload bytes of chunk @p i. */
    const std::uint8_t *
    chunkData(std::size_t i) const
    {
        return file_.data() + chunks_[i].offset;
    }

  private:
    void load();
    void loadV1(ByteReader &in);
    void loadV2(ByteReader &in);

    MappedFile file_;
    unsigned version_ = 0;

    TraceHeader header_;
    std::uint64_t opsOffset_ = 0;
    std::uint64_t opsBytes_ = 0;
    std::uint64_t eventOffset_ = 0;     ///< event-op chunk payload
    std::uint64_t eventBytes_ = 0;
    std::vector<TraceChunk> chunks_;    ///< address chunks
};

/**
 * Decodes the stored address stream of a TraceFile, chunk by chunk.
 * next() wraps to the stream start when the stored accesses run out
 * (the replay equivalent of a generator never running dry); compressed
 * chunks are inflated into a reusable buffer as the cursor enters them.
 */
class TraceCursor
{
  public:
    explicit TraceCursor(const TraceFile &file) : file_(file)
    { rewind(); }

    /** Back to the first stored access. */
    void rewind() { loadChunk(0); }

    /** Next address; wraps past the last stored access. */
    VirtAddr
    next()
    {
        if (remaining_ == 0)
            advanceBlock();
        --remaining_;
        prevVa_ = static_cast<VirtAddr>(
            static_cast<std::int64_t>(prevVa_) +
            unzigzag(decodeVarint(cursor_, end_, blockLabel_.c_str(),
                                  blockBase_)));
        return prevVa_;
    }

  private:
    void advanceBlock();
    void loadChunk(std::size_t idx);

    /** Inflated chunks kept for re-use (wrap) up to this total;
     *  past it, later chunks inflate into the scratch buffer on every
     *  visit. Caching keeps looping replays as fast as raw decode. */
    static constexpr std::uint64_t maxCachedBytes = 256ull << 20;

    const TraceFile &file_;
    const std::uint8_t *cursor_ = nullptr;
    const std::uint8_t *end_ = nullptr;
    /** Diagnostic context for the current block: decodeVarint reports
     *  offsets relative to blockBase_ under the blockLabel_ name (for
     *  mapped blocks that is the absolute file offset; for inflated
     *  chunks, the offset within the decoded chunk). */
    std::string blockLabel_;
    const std::uint8_t *blockBase_ = nullptr;
    VirtAddr prevVa_ = 0;
    std::uint64_t remaining_ = 0;   ///< accesses left in current block
    std::size_t chunkIdx_ = 0;      ///< current chunk
    std::vector<std::uint8_t> scratch_;   ///< past-budget inflation
    std::vector<std::vector<std::uint8_t>> cache_;  ///< per chunk
    std::uint64_t cachedBytes_ = 0;
};

/** True when the library was built with zlib (deflate chunks readable
 *  and writable); without it, compressed traces fail to load with a
 *  DataLoss StatusError. */
bool traceCompressionAvailable();

} // namespace asap

#endif // ASAP_TRACE_TRACE_FILE_HH
