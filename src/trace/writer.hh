/**
 * @file
 * Streaming writer for the ASAPTRC2 chunked container (layout in
 * trace_file.hh).
 *
 * Addresses are fed one at a time; every chunkAccesses of them close a
 * chunk — a self-contained zigzag-varint delta block (re-based from VA
 * 0) that is optionally deflate-compressed before hitting the file. In
 * sampled-stream mode only every sampleInterval-th chunk is stored; the
 * header still records the full represented access count, so RunStats
 * measured over the sampled stream can be scaled back up. Chunks are
 * written as they close (nothing but the current chunk is buffered), so
 * >100M-access captures stream through constant memory.
 */

#ifndef ASAP_TRACE_WRITER_HH
#define ASAP_TRACE_WRITER_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/types.hh"
#include "trace/trace_file.hh"

namespace asap
{

struct Trc2Options
{
    /** Addresses per chunk. Smaller chunks sample finer but carry
     *  more index overhead and re-base more often. */
    std::uint32_t chunkAccesses = 1u << 16;
    /** Deflate chunks that shrink (no-op when built without zlib). */
    bool compress = true;
    /** Store only every N-th chunk (1 = full stream). */
    std::uint32_t sampleInterval = 1;
};

struct Trc2Summary
{
    std::uint64_t fileBytes = 0;
    std::uint64_t chunkCount = 0;
    std::uint64_t storedAccesses = 0;
    std::uint64_t representedAccesses = 0;
    std::uint64_t rawStreamBytes = 0;     ///< stored chunks, pre-codec
    std::uint64_t storedStreamBytes = 0;  ///< stored chunks, on disk
};

class Trc2Writer
{
  public:
    /**
     * Open @p path and write the header. @p meta supplies the metadata
     * block (name .. recordSeed); meta.representedAccesses, when
     * non-zero, overrides the fed-access count in the header — used
     * when re-containering an already-sampled trace, whose fed stream
     * is itself a sample of the original capture. @p ops is the
     * setup-op stream (SetupCapture encoding). @p eventOps, when
     * non-empty, is a serialized OsEventStream stored as an event-op
     * chunk (chunkCodecEventOps) so dynamic runs replay their OS
     * events bit-identically.
     */
    Trc2Writer(const std::string &path, const TraceHeader &meta,
               const std::string &ops, const Trc2Options &options = {},
               const std::string &eventOps = {});
    ~Trc2Writer();

    Trc2Writer(const Trc2Writer &) = delete;
    Trc2Writer &operator=(const Trc2Writer &) = delete;

    /** Append the next address of the stream. */
    void add(VirtAddr va);

    /** Flush, write index + footer, close. Call exactly once. */
    Trc2Summary finish();

  private:
    void flushChunk();
    void writeOrDie(const void *bytes, std::size_t n);

    std::string path_;
    Trc2Options options_;
    std::FILE *file_ = nullptr;
    bool finished_ = false;

    std::uint64_t representedOverride_ = 0;
    std::uint64_t representedFieldOffset_ = 0;
    std::uint64_t fileOffset_ = 0;

    std::string chunkBuf_;
    std::uint32_t chunkBufAccesses_ = 0;
    VirtAddr chunkFirstVa_ = 0;
    VirtAddr prevVa_ = 0;
    std::uint64_t fedAccesses_ = 0;

    std::vector<TraceChunk> chunks_;
    std::uint64_t rawStreamBytes_ = 0;
    std::uint64_t storedStreamBytes_ = 0;
};

} // namespace asap

#endif // ASAP_TRACE_WRITER_HH
