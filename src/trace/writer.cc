#include "trace/writer.hh"

#include <cerrno>
#include <cstring>
#include <limits>

#ifdef ASAP_HAVE_ZLIB
#include <zlib.h>
#endif

namespace asap
{

Trc2Writer::Trc2Writer(const std::string &path, const TraceHeader &meta,
                       const std::string &ops,
                       const Trc2Options &options,
                       const std::string &eventOps)
    : path_(path), options_(options),
      representedOverride_(meta.representedAccesses)
{
    spec_error_if(options_.chunkAccesses == 0, "%s: zero chunk size",
                  path.c_str());
    // Chunk index entries hold u32 byte sizes; a varint delta is at
    // most 10 bytes, so this cap keeps even the worst-case delta block
    // (and its compressBound) comfortably inside u32.
    spec_error_if(options_.chunkAccesses > (1u << 26),
                  "%s: chunk size %u exceeds the %u-access limit",
                  path.c_str(), options_.chunkAccesses, 1u << 26);
    spec_error_if(options_.sampleInterval == 0,
                  "%s: zero sample interval", path.c_str());

    std::string header;
    header.append(trc2Magic, sizeof(trc2Magic));
    put32(header, trc2Version);
    put32(header, 0);
    putString(header, meta.name);
    put32(header, meta.cyclesPerAccess);
    put64(header, doubleToBits(meta.paperGb));
    put64(header, meta.residentPages);
    put64(header, meta.machineMemBytes);
    put64(header, meta.guestMemBytes);
    put64(header, meta.churnOps);
    put64(header, meta.guestChurnOps);
    put32(header, meta.churnMaxOrder);
    put64(header, meta.recordSeed);
    put64(header, ops.size());
    header.append(ops);
    // Represented accesses are only known at finish(); reserve the
    // field and patch it then.
    representedFieldOffset_ = header.size();
    put64(header, 0);
    put32(header, options_.sampleInterval);
    put32(header, options_.chunkAccesses);

    file_ = std::fopen(path.c_str(), "wb");
    io_error_if(!file_, "cannot write trace %s: %s", path.c_str(),
                std::strerror(errno));
    writeOrDie(header.data(), header.size());

    if (!eventOps.empty()) {
        // The OS-event stream rides as the first chunk, tagged by its
        // codec; it contributes no accesses and is stored raw (event
        // streams are tiny next to the address stream).
        spec_error_if(eventOps.size() >
                          std::numeric_limits<std::uint32_t>::max(),
                      "%s: OS-event stream overflows the u32 index "
                      "field",
                      path.c_str());
        TraceChunk chunk;
        chunk.offset = fileOffset_;
        chunk.storedBytes = static_cast<std::uint32_t>(eventOps.size());
        chunk.rawBytes = chunk.storedBytes;
        chunk.accesses = 0;
        chunk.codec = chunkCodecEventOps;
        chunks_.push_back(chunk);
        writeOrDie(eventOps.data(), eventOps.size());
    }

    chunkBuf_.reserve(options_.chunkAccesses * 4);
}

Trc2Writer::~Trc2Writer()
{
    if (file_)
        std::fclose(file_);
}

void
Trc2Writer::writeOrDie(const void *bytes, std::size_t n)
{
    io_error_if(std::fwrite(bytes, 1, n, file_) != n,
                "short write to trace %s: %s", path_.c_str(),
                std::strerror(errno));
    fileOffset_ += n;
}

void
Trc2Writer::add(VirtAddr va)
{
    const std::uint64_t chunkNumber = fedAccesses_ / options_.chunkAccesses;
    if (chunkNumber % options_.sampleInterval == 0) {
        if (chunkBufAccesses_ == 0) {
            // Chunks are self-contained: the first delta re-bases from
            // VA 0 so any chunk decodes independently.
            prevVa_ = 0;
            chunkFirstVa_ = va;
        }
        putVarint(chunkBuf_, zigzag(static_cast<std::int64_t>(va) -
                                    static_cast<std::int64_t>(prevVa_)));
        prevVa_ = va;
        ++chunkBufAccesses_;
        if (chunkBufAccesses_ == options_.chunkAccesses)
            flushChunk();
    }
    ++fedAccesses_;
}

void
Trc2Writer::flushChunk()
{
    if (chunkBufAccesses_ == 0)
        return;

    TraceChunk chunk;
    chunk.offset = fileOffset_;
    spec_error_if(chunkBuf_.size() >
                      std::numeric_limits<std::uint32_t>::max(),
                  "%s: chunk delta block overflows the u32 index field",
                  path_.c_str());
    chunk.rawBytes = static_cast<std::uint32_t>(chunkBuf_.size());
    chunk.accesses = chunkBufAccesses_;
    chunk.codec = chunkCodecRaw;
    chunk.firstVa = chunkFirstVa_;

#ifdef ASAP_HAVE_ZLIB
    std::vector<Bytef> deflated;
    if (options_.compress) {
        uLongf destLen = ::compressBound(
            static_cast<uLong>(chunkBuf_.size()));
        deflated.resize(destLen);
        const int rc = ::compress2(
            deflated.data(), &destLen,
            reinterpret_cast<const Bytef *>(chunkBuf_.data()),
            static_cast<uLong>(chunkBuf_.size()),
            Z_DEFAULT_COMPRESSION);
        // Store deflated only when it actually shrinks the chunk.
        if (rc == Z_OK && destLen < chunkBuf_.size()) {
            chunk.codec = chunkCodecDeflate;
            chunk.storedBytes = static_cast<std::uint32_t>(destLen);
            writeOrDie(deflated.data(), destLen);
        }
    }
#endif
    if (chunk.codec == chunkCodecRaw) {
        chunk.storedBytes = chunk.rawBytes;
        writeOrDie(chunkBuf_.data(), chunkBuf_.size());
    }

    rawStreamBytes_ += chunk.rawBytes;
    storedStreamBytes_ += chunk.storedBytes;
    chunks_.push_back(chunk);

    chunkBuf_.clear();
    chunkBufAccesses_ = 0;
}

Trc2Summary
Trc2Writer::finish()
{
    fatal_if(finished_, "%s: finish() called twice", path_.c_str());
    finished_ = true;
    flushChunk();
    spec_error_if(chunks_.empty(), "%s: no accesses recorded",
                  path_.c_str());

    const std::uint64_t indexOffset = fileOffset_;
    std::string tail;
    tail.append(trc2IndexMagic, sizeof(trc2IndexMagic));
    std::uint64_t storedAccesses = 0;
    for (const TraceChunk &chunk : chunks_) {
        // The constructor's and flushChunk's bounds keep these in u32.
        put64(tail, chunk.offset);
        put32(tail, static_cast<std::uint32_t>(chunk.storedBytes));
        put32(tail, static_cast<std::uint32_t>(chunk.rawBytes));
        put32(tail, static_cast<std::uint32_t>(chunk.accesses));
        tail.push_back(static_cast<char>(chunk.codec));
        put64(tail, chunk.firstVa);
        storedAccesses += chunk.accesses;
    }
    put64(tail, indexOffset);
    put64(tail, chunks_.size());
    tail.append(trc2EndMagic, sizeof(trc2EndMagic));
    writeOrDie(tail.data(), tail.size());

    // Patch the represented-access count reserved in the header.
    const std::uint64_t represented =
        representedOverride_ ? representedOverride_ : fedAccesses_;
    spec_error_if(represented < storedAccesses,
                  "%s: represented accesses %lu below stored %lu",
                  path_.c_str(), static_cast<unsigned long>(represented),
                  static_cast<unsigned long>(storedAccesses));
    std::string field;
    put64(field, represented);
    io_error_if(std::fseek(file_,
                           static_cast<long>(representedFieldOffset_),
                           SEEK_SET) != 0,
                "cannot seek in trace %s: %s", path_.c_str(),
                std::strerror(errno));
    io_error_if(std::fwrite(field.data(), 1, field.size(), file_) !=
                    field.size(),
                "short write to trace %s: %s", path_.c_str(),
                std::strerror(errno));
    // Drop file_ before the close check: if fclose fails and throws,
    // the destructor must not close the (now dead) handle again.
    std::FILE *file = file_;
    file_ = nullptr;
    io_error_if(std::fclose(file) != 0, "cannot close trace %s: %s",
                path_.c_str(), std::strerror(errno));

    Trc2Summary summary;
    summary.fileBytes = fileOffset_;
    summary.chunkCount = chunks_.size();
    summary.storedAccesses = storedAccesses;
    summary.representedAccesses = represented;
    summary.rawStreamBytes = rawStreamBytes_;
    summary.storedStreamBytes = storedStreamBytes_;
    return summary;
}

} // namespace asap
