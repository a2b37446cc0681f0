/**
 * @file
 * Fixture for the legacy ASAPTRC1 container, which the library reads
 * but no longer writes: writeLegacyTrace re-encodes a recorded trace
 * in that layout (src/trace/trace_file.hh), so tests keep covering the
 * loader, conversion from it and its corruption handling. The magic and
 * version are spelled out here rather than taken from the library, so
 * the fixture pins the on-disk format itself.
 */

#ifndef ASAP_TESTS_LEGACY_TRACE_HH
#define ASAP_TESTS_LEGACY_TRACE_HH

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "trace/format.hh"
#include "trace/trace_file.hh"

namespace asap::testutil
{

/**
 * Write the ASAPTRC1 form of the full, static trace at @p src to
 * @p dst: its metadata block, its setup ops and its stored addresses as
 * one zigzag-varint delta stream from VA 0.
 */
inline void
writeLegacyTrace(const std::string &src, const std::string &dst)
{
    const TraceFile trace(src);
    const TraceHeader &header = trace.header();
    // ASAPTRC1 has no event-op chunk and no represented-access count.
    ASSERT_FALSE(trace.hasEventOps()) << src;
    ASSERT_EQ(header.representedAccesses, header.accessCount) << src;

    std::string stream;
    TraceCursor cursor(trace);
    VirtAddr prev = 0;
    for (std::uint64_t i = 0; i < header.accessCount; ++i) {
        const VirtAddr va = cursor.next();
        putVarint(stream, zigzag(static_cast<std::int64_t>(va) -
                                 static_cast<std::int64_t>(prev)));
        prev = va;
    }

    const std::string ops(reinterpret_cast<const char *>(trace.opsBegin()),
                          trace.opsEnd() - trace.opsBegin());
    std::string out("ASAPTRC1", 8);
    put32(out, 1);   // version
    put32(out, 0);   // reserved
    putString(out, header.name);
    put32(out, header.cyclesPerAccess);
    put64(out, doubleToBits(header.paperGb));
    put64(out, header.residentPages);
    put64(out, header.machineMemBytes);
    put64(out, header.guestMemBytes);
    put64(out, header.churnOps);
    put64(out, header.guestChurnOps);
    put32(out, header.churnMaxOrder);
    put64(out, header.recordSeed);
    put64(out, ops.size());
    out += ops;
    put64(out, header.accessCount);
    put64(out, stream.size());
    out += stream;
    writeFileOrThrow(dst, out);
}

} // namespace asap::testutil

#endif // ASAP_TESTS_LEGACY_TRACE_HH
