#include "trace/setup_capture.hh"

namespace asap
{

namespace
{

/**
 * Decode one setup-op stream, invoking @p onMmap(bytes, name,
 * prefetchable) and @p onTouchRun(start, length) per op. All format
 * validation lives here so replay and the fuzz-facing validator cannot
 * drift apart. Throws StatusError (DataLoss) on malformed bytes.
 */
template <typename OnMmap, typename OnTouchRun>
void
walkSetupOps(const std::uint8_t *cursor, const std::uint8_t *end,
             const char *path, OnMmap &&onMmap, OnTouchRun &&onTouchRun)
{
    // Offsets in diagnostics are relative to the start of the setup-op
    // stream (the stream is a section of a larger container, so stream
    // offsets are what the header's opBytes field points at).
    const std::uint8_t *base = cursor;
    VirtAddr prevStart = 0;
    while (cursor < end) {
        const std::uint64_t opOffset =
            static_cast<std::uint64_t>(cursor - base);
        const std::uint8_t tag = *cursor++;
        if (tag == opMmap) {
            const std::uint64_t bytes =
                decodeVarint(cursor, end, path, base);
            input_error_if(end - cursor < 5,
                           "%s: truncated mmap op at byte offset %llu",
                           path,
                           static_cast<unsigned long long>(opOffset));
            const bool prefetchable = *cursor++ != 0;
            std::uint32_t nameLen = 0;
            for (unsigned i = 0; i < 4; ++i)
                nameLen |= static_cast<std::uint32_t>(*cursor++)
                           << (8 * i);
            input_error_if(nameLen > maxTraceStringLen ||
                               static_cast<std::uint64_t>(end - cursor) <
                                   nameLen,
                           "%s: implausible mmap name length %u at byte "
                           "offset %llu",
                           path, nameLen,
                           static_cast<unsigned long long>(opOffset));
            const std::string name(
                reinterpret_cast<const char *>(cursor), nameLen);
            cursor += nameLen;
            onMmap(bytes, name, prefetchable);
        } else if (tag == opTouchRun) {
            const VirtAddr start = static_cast<VirtAddr>(
                static_cast<std::int64_t>(prevStart) +
                unzigzag(decodeVarint(cursor, end, path, base)));
            const std::uint64_t length =
                decodeVarint(cursor, end, path, base);
            onTouchRun(start, length);
            prevStart = start;
        } else {
            input_error("%s: unknown setup op %u at byte offset %llu",
                        path, static_cast<unsigned>(tag),
                        static_cast<unsigned long long>(opOffset));
        }
    }
}

} // namespace

void
replaySetupOps(System &system, const std::uint8_t *cursor,
               const std::uint8_t *end, const char *path)
{
    walkSetupOps(
        cursor, end, path,
        [&system](std::uint64_t bytes, const std::string &name,
                  bool prefetchable) {
            system.mmap(bytes, name, prefetchable);
        },
        [&system](VirtAddr start, std::uint64_t length) {
            system.touchRange(start, length);
        });
}

void
validateSetupOps(const std::uint8_t *cursor, const std::uint8_t *end,
                 const char *path)
{
    walkSetupOps(
        cursor, end, path,
        [](std::uint64_t, const std::string &, bool) {},
        [](VirtAddr, std::uint64_t) {});
}

} // namespace asap
