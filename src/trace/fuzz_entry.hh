/**
 * @file
 * Library-side bodies of the libFuzzer targets (the fuzz/ sources are thin
 * LLVMFuzzerTestOneInput wrappers around these).
 *
 * Living in the library keeps the harness logic testable without a
 * fuzzer build: tests/test_robust.cc replays the checked-in seed
 * corpus through these exact entry points, so a regression that would
 * crash the fuzzer fails a plain ctest run first.
 *
 * The contract both entries enforce: arbitrary input bytes either
 * parse, or are rejected with a StatusError — never a crash, an abort
 * (panic/fatal), an out-of-bounds read, or a runaway allocation.
 */

#ifndef ASAP_TRACE_FUZZ_ENTRY_HH
#define ASAP_TRACE_FUZZ_ENTRY_HH

#include <cstddef>
#include <cstdint>

namespace asap
{

/** Container surface: load @p data as an ASAPTRC1/2 trace, validate
 *  the setup-op stream, decode any OS-event stream, and replay a
 *  bounded prefix of the address stream. */
void fuzzTraceFileOneInput(const std::uint8_t *data, std::size_t size);

/** Importer surface: sniff @p data, then run every registered
 *  importer's parser over it. */
void fuzzImportersOneInput(const std::uint8_t *data, std::size_t size);

} // namespace asap

#endif // ASAP_TRACE_FUZZ_ENTRY_HH
