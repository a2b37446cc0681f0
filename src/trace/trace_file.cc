#include "trace/trace_file.hh"

#include <algorithm>
#include <cstring>

#ifdef ASAP_HAVE_ZLIB
#include <zlib.h>
#endif

#include "common/fault_inject.hh"

namespace asap
{

namespace
{

/** Bytes of one chunk-index entry (u64 + 3*u32 + u8 + u64). */
constexpr std::uint64_t indexEntryBytes = 8 + 4 + 4 + 4 + 1 + 8;
/** Bytes of the fixed footer (indexOffset, chunkCount, end magic). */
constexpr std::uint64_t footerBytes = 8 + 8 + 8;

/** The metadata block, identical in both containers. */
void
readMetadata(ByteReader &in, TraceHeader &header)
{
    header.name = in.getString();
    header.cyclesPerAccess = in.get32();
    header.paperGb = bitsToDouble(in.get64());
    header.residentPages = in.get64();
    header.machineMemBytes = in.get64();
    header.guestMemBytes = in.get64();
    header.churnOps = in.get64();
    header.guestChurnOps = in.get64();
    header.churnMaxOrder = in.get32();
    header.recordSeed = in.get64();
}

} // namespace

bool
traceCompressionAvailable()
{
#ifdef ASAP_HAVE_ZLIB
    return true;
#else
    return false;
#endif
}

TraceFile::TraceFile(const std::string &path) : file_(path)
{
    load();
}

TraceFile::TraceFile(const std::uint8_t *data, std::uint64_t size,
                     std::string name)
    : file_(data, size, std::move(name))
{
    load();
}

StatusOr<std::unique_ptr<TraceFile>>
TraceFile::open(const std::string &path)
{
    std::unique_ptr<TraceFile> file;
    Status status =
        runToStatus([&] { file.reset(new TraceFile(path)); });
    if (!status.ok())
        return status;
    return StatusOr<std::unique_ptr<TraceFile>>(std::move(file));
}

void
TraceFile::load()
{
    const std::string &path = file_.path();
    input_error_if(file_.size() < sizeof(trc1Magic) + 8,
                   "trace %s too small (%llu bytes)", path.c_str(),
                   static_cast<unsigned long long>(file_.size()));

    ByteReader in(file_.data(), file_.size(), file_.path());
    const std::uint8_t *magic = in.skip(sizeof(trc1Magic));
    const std::uint32_t version = in.get32();
    in.get32();   // reserved

    if (std::memcmp(magic, trc1Magic, sizeof(trc1Magic)) == 0) {
        input_error_if(version != trc1Version,
                       "%s: unsupported ASAPTRC1 version %u",
                       path.c_str(), version);
        version_ = trc1Version;
        loadV1(in);
    } else if (std::memcmp(magic, trc2Magic, sizeof(trc2Magic)) == 0) {
        input_error_if(version != trc2Version,
                       "%s: unsupported ASAPTRC2 version %u",
                       path.c_str(), version);
        version_ = trc2Version;
        loadV2(in);
    } else {
        input_error("%s is not an ASAP trace", path.c_str());
    }

    input_error_if(header_.accessCount == 0, "%s: empty address stream",
                   path.c_str());
    input_error_if(header_.representedAccesses < header_.accessCount,
                   "%s: represented accesses %lu below stored %lu",
                   path.c_str(),
                   static_cast<unsigned long>(header_.representedAccesses),
                   static_cast<unsigned long>(header_.accessCount));
}

void
TraceFile::loadV1(ByteReader &in)
{
    readMetadata(in, header_);

    opsBytes_ = in.get64();
    opsOffset_ = in.offset();
    in.skip(opsBytes_);

    // The one delta stream is a raw chunk that re-bases from VA 0,
    // which is what every ASAPTRC2 chunk is.
    TraceChunk stream;
    stream.accesses = in.get64();
    stream.rawBytes = in.get64();
    stream.storedBytes = stream.rawBytes;
    stream.offset = in.offset();
    in.skip(stream.rawBytes);

    // Every delta costs at least one varint byte, so a stream shorter
    // than the access count cannot be decoded fully — reject up front
    // instead of hitting "truncated varint" mid-replay.
    input_error_if(stream.rawBytes < stream.accesses,
                   "%s: stream (%lu bytes) shorter than access count %lu",
                   path().c_str(),
                   static_cast<unsigned long>(stream.rawBytes),
                   static_cast<unsigned long>(stream.accesses));

    header_.accessCount = stream.accesses;
    header_.representedAccesses = stream.accesses;
    header_.sampleInterval = 1;
    header_.chunkAccesses = 0;
    chunks_.push_back(stream);
}

void
TraceFile::loadV2(ByteReader &in)
{
    const char *p = path().c_str();

    readMetadata(in, header_);

    opsBytes_ = in.get64();
    opsOffset_ = in.offset();
    in.skip(opsBytes_);

    header_.representedAccesses = in.get64();
    header_.sampleInterval = in.get32();
    header_.chunkAccesses = in.get32();
    input_error_if(header_.sampleInterval == 0,
                   "%s: zero sample interval", p);
    input_error_if(header_.chunkAccesses == 0, "%s: zero chunk size", p);

    const std::uint64_t dataOffset = in.offset();

    // The index is located through the fixed footer at EOF.
    input_error_if(file_.size() < dataOffset + footerBytes,
                   "%s: truncated trace (no footer)", p);
    const std::uint64_t footerOffset = file_.size() - footerBytes;
    ByteReader footer(file_.data() + footerOffset, footerBytes,
                      file_.path());
    const std::uint64_t indexOffset = footer.get64();
    const std::uint64_t chunkCount = footer.get64();
    const std::uint8_t *endMagic = footer.skip(sizeof(trc2EndMagic));
    input_error_if(std::memcmp(endMagic, trc2EndMagic,
                               sizeof(trc2EndMagic)) != 0,
                   "%s: bad trace footer at byte offset %llu", p,
                   static_cast<unsigned long long>(footerOffset + 16));

    const std::uint64_t indexEnd = footerOffset;
    input_error_if(indexOffset < dataOffset || indexOffset > indexEnd,
                   "%s: chunk index offset %llu out of range "
                   "[%llu, %llu]",
                   p, static_cast<unsigned long long>(indexOffset),
                   static_cast<unsigned long long>(dataOffset),
                   static_cast<unsigned long long>(indexEnd));
    const std::uint64_t indexBytes = indexEnd - indexOffset;
    input_error_if(indexBytes != sizeof(trc2IndexMagic) +
                                     chunkCount * indexEntryBytes,
                   "%s: chunk index size mismatch (%lu chunks)", p,
                   static_cast<unsigned long>(chunkCount));
    input_error_if(chunkCount == 0, "%s: no chunks", p);

    ByteReader index(file_.data() + indexOffset, indexBytes,
                     file_.path());
    const std::uint8_t *indexMagic = index.skip(sizeof(trc2IndexMagic));
    input_error_if(std::memcmp(indexMagic, trc2IndexMagic,
                               sizeof(trc2IndexMagic)) != 0,
                   "%s: bad chunk index magic at byte offset %llu", p,
                   static_cast<unsigned long long>(indexOffset));

    chunks_.reserve(chunkCount);
    std::uint64_t expectedOffset = dataOffset;
    std::uint64_t total = 0;
    for (std::uint64_t i = 0; i < chunkCount; ++i) {
        TraceChunk chunk;
        chunk.offset = index.get64();
        chunk.storedBytes = index.get32();
        chunk.rawBytes = index.get32();
        chunk.accesses = index.get32();
        chunk.codec = index.get8();
        chunk.firstVa = index.get64();

        // Chunks are written back to back; enforcing that here means a
        // corrupt index cannot alias chunks or point into the header.
        input_error_if(chunk.offset != expectedOffset,
                       "%s: chunk %lu offset %lu, expected %lu "
                       "(index entry at byte offset %llu)",
                       p, static_cast<unsigned long>(i),
                       static_cast<unsigned long>(chunk.offset),
                       static_cast<unsigned long>(expectedOffset),
                       static_cast<unsigned long long>(
                           indexOffset + sizeof(trc2IndexMagic) +
                           i * indexEntryBytes));
        expectedOffset += chunk.storedBytes;
        input_error_if(expectedOffset > indexOffset,
                       "%s: chunk %lu (at byte offset %llu, %llu stored "
                       "bytes) overruns the index at %llu",
                       p, static_cast<unsigned long>(i),
                       static_cast<unsigned long long>(chunk.offset),
                       static_cast<unsigned long long>(chunk.storedBytes),
                       static_cast<unsigned long long>(indexOffset));
        if (chunk.codec == chunkCodecEventOps) {
            // OS-event stream payload: lifted out of the address-chunk
            // list so the cursor never decodes it.
            input_error_if(chunk.accesses != 0,
                           "%s: event-op chunk %lu claims accesses", p,
                           static_cast<unsigned long>(i));
            input_error_if(chunk.storedBytes != chunk.rawBytes ||
                               chunk.storedBytes == 0,
                           "%s: malformed event-op chunk %lu", p,
                           static_cast<unsigned long>(i));
            input_error_if(eventBytes_ != 0,
                           "%s: more than one event-op chunk", p);
            eventOffset_ = chunk.offset;
            eventBytes_ = chunk.storedBytes;
            continue;
        }
        input_error_if(chunk.accesses == 0, "%s: empty chunk %lu", p,
                       static_cast<unsigned long>(i));
        input_error_if(chunk.rawBytes < chunk.accesses,
                       "%s: chunk %lu raw bytes below access count", p,
                       static_cast<unsigned long>(i));
        if (chunk.codec == chunkCodecRaw) {
            input_error_if(chunk.storedBytes != chunk.rawBytes,
                           "%s: raw chunk %lu size mismatch", p,
                           static_cast<unsigned long>(i));
        } else if (chunk.codec == chunkCodecDeflate) {
            input_error_if(!traceCompressionAvailable(),
                           "%s: compressed trace, but built without "
                           "zlib",
                           p);
            // Deflate tops out near 1032:1; a rawBytes claim beyond
            // that is corrupt, and bounding it here keeps a hostile
            // index from demanding a huge inflation buffer.
            input_error_if(chunk.rawBytes / 1032 >
                               chunk.storedBytes,
                           "%s: chunk %lu claims %llu raw bytes from %llu "
                           "stored (beyond max deflate ratio)",
                           p, static_cast<unsigned long>(i),
                           static_cast<unsigned long long>(chunk.rawBytes),
                           static_cast<unsigned long long>(
                               chunk.storedBytes));
        } else {
            input_error("%s: unknown chunk codec %u in chunk %lu", p,
                        static_cast<unsigned>(chunk.codec),
                        static_cast<unsigned long>(i));
        }

        total += chunk.accesses;
        chunks_.push_back(chunk);
    }
    header_.accessCount = total;
}

// ---------------------------------------------------------------------------
// TraceCursor
// ---------------------------------------------------------------------------

void
TraceCursor::advanceBlock()
{
    // A block's varints must consume its byte count exactly; leftovers
    // mean the stream and the declared access count disagree.
    input_error_if(cursor_ != end_,
                   "%s: %lu stream bytes left over after the declared "
                   "access count",
                   blockLabel_.c_str(),
                   static_cast<unsigned long>(end_ - cursor_));
    // Past the last chunk the stream wraps to its first address.
    loadChunk(chunkIdx_ + 1 < file_.chunks().size() ? chunkIdx_ + 1 : 0);
}

void
TraceCursor::loadChunk(std::size_t idx)
{
    const TraceChunk &chunk = file_.chunks()[idx];
    const std::uint8_t *stored = file_.chunkData(idx);
    if (chunk.codec == chunkCodecRaw) {
        cursor_ = stored;
        // Mapped in place: offsets are absolute file positions.
        blockLabel_ = strprintf("%s chunk %zu", file_.path().c_str(),
                                idx);
        blockBase_ = file_.fileData();
    } else {
#ifdef ASAP_HAVE_ZLIB
        if (cache_.empty())
            cache_.resize(file_.chunks().size());
        std::vector<std::uint8_t> *dest = &cache_[idx];
        bool inflate = dest->empty();
        if (inflate && cachedBytes_ + chunk.rawBytes > maxCachedBytes) {
            // Past the cache budget: this chunk re-inflates into the
            // (single-chunk) scratch buffer on every visit.
            dest = &scratch_;
        } else if (inflate) {
            cachedBytes_ += chunk.rawBytes;
        }
        if (inflate) {
            fault::maybeFail("decompress");
            dest->resize(chunk.rawBytes);
            uLongf destLen = chunk.rawBytes;
            const int rc = ::uncompress(dest->data(), &destLen, stored,
                                        chunk.storedBytes);
            input_error_if(
                rc != Z_OK || destLen != chunk.rawBytes,
                "%s: chunk %zu (at byte offset %llu) fails to "
                "decompress (zlib rc %d, %lu of %llu bytes)",
                file_.path().c_str(), idx,
                static_cast<unsigned long long>(chunk.offset), rc,
                static_cast<unsigned long>(destLen),
                static_cast<unsigned long long>(chunk.rawBytes));
        }
        cursor_ = dest->data();
        // Offsets are within the decoded chunk, not the file; say so.
        blockLabel_ = strprintf(
            "%s chunk %zu (decoded; stored at byte offset %llu)",
            file_.path().c_str(), idx,
            static_cast<unsigned long long>(chunk.offset));
        blockBase_ = cursor_;
#else
        input_error("%s: compressed trace, but built without zlib",
                    file_.path().c_str());
#endif
    }
    end_ = cursor_ + chunk.rawBytes;
    prevVa_ = 0;
    remaining_ = chunk.accesses;
    chunkIdx_ = idx;
}

} // namespace asap
