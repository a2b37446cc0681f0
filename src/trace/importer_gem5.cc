/**
 * @file
 * gem5 protobuf packet-trace importer, registered with the other
 * formats in the TraceImporter registry.
 *
 * gem5's CommMonitor / MemTraceProbe write packet traces as:
 *
 *   4 bytes   magic "gem5"
 *   repeated  varint message length, then that many bytes of a
 *             protobuf message — first a ProtoMessage::PacketHeader
 *             (obj_id, ver, tick_freq), then one ProtoMessage::Packet
 *             per request:
 *
 *               required uint64 tick  = 1;
 *               required uint32 cmd   = 2;   // MemCmd::Command
 *               required uint64 addr  = 3;
 *               required uint32 size  = 4;
 *               optional uint32 flags = 5;  ...
 *
 * Rather than depending on protobuf, the parser walks the wire format
 * generically (varint / 64-bit / length-delimited / 32-bit fields,
 * unknown fields skipped), which also keeps it robust against the
 * optional fields newer gem5 versions append. The first message after
 * the magic is always the header and is skipped. cmd 4 (WriteReq) and
 * 5 (WriteResp) mark writes; every other command is treated as a read.
 * gem5 traces are usually gzip-compressed on disk; decompress before
 * importing. Addresses are whatever the probe saw (often physical);
 * like every import, they are rebased into the deterministic replay
 * layout, so only their page-granular structure matters.
 */

#include "trace/importer.hh"

#include <cstring>

#include "common/logging.hh"
#include "trace/format.hh"

namespace asap
{

namespace
{

constexpr char gem5Magic[4] = {'g', 'e', 'm', '5'};

/** Protobuf wire types. */
constexpr unsigned wireVarint = 0;
constexpr unsigned wireFixed64 = 1;
constexpr unsigned wireBytes = 2;
constexpr unsigned wireFixed32 = 5;

/** The Packet fields this importer consumes. */
struct PacketFields
{
    std::uint64_t cmd = 0;
    std::uint64_t addr = 0;
    std::uint64_t size = 0;
    bool hasAddr = false;
};

/**
 * Generic walk of one protobuf message, capturing fields 2/3/4 when
 * varint-encoded. @p path names the file in failure messages.
 */
PacketFields
parseMessage(const std::uint8_t *cursor, const std::uint8_t *end,
             const char *path)
{
    PacketFields fields;
    while (cursor < end) {
        const std::uint64_t tag = decodeVarint(cursor, end, path);
        const unsigned wire = static_cast<unsigned>(tag & 7);
        const std::uint64_t field = tag >> 3;
        switch (wire) {
          case wireVarint: {
            const std::uint64_t value = decodeVarint(cursor, end, path);
            if (field == 2) {
                fields.cmd = value;
            } else if (field == 3) {
                fields.addr = value;
                fields.hasAddr = true;
            } else if (field == 4) {
                fields.size = value;
            }
            break;
          }
          case wireFixed64:
            input_error_if(end - cursor < 8, "%s: truncated fixed64 field",
                     path);
            cursor += 8;
            break;
          case wireBytes: {
            const std::uint64_t len = decodeVarint(cursor, end, path);
            input_error_if(static_cast<std::uint64_t>(end - cursor) < len,
                     "%s: truncated length-delimited field", path);
            cursor += len;
            break;
          }
          case wireFixed32:
            input_error_if(end - cursor < 4, "%s: truncated fixed32 field",
                     path);
            cursor += 4;
            break;
          default:
            input_error("%s: unsupported protobuf wire type %u", path, wire);
        }
    }
    return fields;
}

class Gem5Importer : public TraceImporter
{
  public:
    const char *formatName() const override { return "gem5"; }

    const char *
    description() const override
    {
        return "gem5 protobuf packet trace ('gem5' magic + "
               "varint-delimited Packet messages; decompress first)";
    }

    bool
    sniff(const std::uint8_t *data, std::size_t size) const override
    {
        // The 4-byte magic plus at least a framed header message.
        if (size < sizeof(gem5Magic) + 2 ||
            std::memcmp(data, gem5Magic, sizeof(gem5Magic)) != 0) {
            return false;
        }
        const std::uint8_t *cursor = data + sizeof(gem5Magic);
        const std::uint8_t *end = data + size;
        // First frame must fit inside the file.
        std::uint64_t len = 0;
        unsigned shift = 0;
        while (cursor < end) {
            const std::uint8_t byte = *cursor++;
            len |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if ((byte & 0x80) == 0)
                return len <= static_cast<std::uint64_t>(end - cursor);
            shift += 7;
            if (shift > 63)
                return false;
        }
        return false;
    }

    void
    parse(const std::uint8_t *data, std::size_t size, const char *path,
          RecordSink &sink) const override
    {
        input_error_if(size < sizeof(gem5Magic) ||
                     std::memcmp(data, gem5Magic, sizeof(gem5Magic)) != 0,
                 "%s: missing gem5 magic", path);
        const std::uint8_t *cursor = data + sizeof(gem5Magic);
        const std::uint8_t *end = data + size;

        bool header = true;
        while (cursor < end) {
            const std::uint64_t len = decodeVarint(cursor, end, path);
            input_error_if(static_cast<std::uint64_t>(end - cursor) < len,
                     "%s: truncated gem5 message (need %lu bytes)", path,
                     static_cast<unsigned long>(len));
            const std::uint8_t *messageEnd = cursor + len;
            if (header) {
                // ProtoMessage::PacketHeader — validated for wire
                // sanity, otherwise ignored.
                parseMessage(cursor, messageEnd, path);
                header = false;
            } else {
                const PacketFields fields =
                    parseMessage(cursor, messageEnd, path);
                // Packets without an address (e.g. flush commands some
                // probes emit) carry no memory reference.
                if (fields.hasAddr) {
                    TraceRecord record;
                    record.va = fields.addr;
                    record.size = fields.size
                                      ? static_cast<std::uint32_t>(
                                            fields.size)
                                      : 4;
                    // MemCmd: 4 = WriteReq, 5 = WriteResp.
                    record.write = fields.cmd == 4 || fields.cmd == 5;
                    sink.record(record);
                }
            }
            cursor = messageEnd;
        }
        input_error_if(header, "%s: gem5 trace has no messages", path);
    }
};

} // namespace

const TraceImporter &
gem5Importer()
{
    static const Gem5Importer importer;
    return importer;
}

} // namespace asap
