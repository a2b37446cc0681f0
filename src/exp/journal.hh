/**
 * @file
 * Crash-safe per-cell sweep journal: the checkpoint/resume half of the
 * resilient execution layer.
 *
 * As each sweep cell finishes (successfully or as an error cell), the
 * runner appends one JSON line to <resultsDir>/<name>_cells.journal.jsonl
 * and fsyncs it, so a SIGKILL — or a whole-machine crash — between
 * cells loses at most the cell in flight. A rerun with ASAP_RESUME=1
 * loads the journal, skips every recorded cell whose identity still
 * matches (row, column, per-cell seed and the full environment
 * signature are hashed into a per-record key), and re-emits artifacts
 * byte-identical to an uninterrupted run.
 *
 * Full fidelity matters for that byte-identity: RunStats is serialized
 * part by part (RunStats::forEachPart, in its order) with u64 values as
 * decimal *strings* (JSON numbers are doubles; counters past 2^53 would
 * silently round), histograms as sparse bucket maps, and counters as an
 * ordered list. The wall-clock self-profile is deliberately NOT
 * journaled — it is nondeterministic, only ever emitted under
 * ASAP_PROFILE=1, and a resumed run cannot reproduce it (document:
 * ASAP_PROFILE artifacts of a resumed run show zero profile blocks for
 * the resumed cells).
 *
 * Journal layout (one JSON document per line):
 *   {"journal":"asap-sweep-cells","version":1,"sweep":<name>,
 *    "cells":<count>}                                        (header)
 *   {"cell":<index>,"key":<hash hex>,"row":...,"column":...,
 *    "measured":...,"status":...,"attempts":...,
 *    "stats":{...},"extra":{...}}                            (records)
 *
 * A journal whose header does not match the running sweep (renamed
 * sweep, different cell count) contributes nothing: resume quietly
 * recomputes. A record that does not parse, or whose cell index or
 * attempt count is not an integer in range, costs only its own cell.
 */

#ifndef ASAP_EXP_JOURNAL_HH
#define ASAP_EXP_JOURNAL_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "exp/sweep.hh"

namespace asap::exp
{

/** 64-bit FNV-1a over @p bytes; the journal's record-identity hash. */
std::uint64_t fnv1a64(const std::string &bytes);

/** Serialize a cell result (minus the self-profile) for the journal. */
Json cellResultToJson(const CellResult &result);

/** Inverse of cellResultToJson; false when @p json is malformed. */
bool cellResultFromJson(const Json &json, CellResult &result);

class CellJournal
{
  public:
    ~CellJournal() { close(); }

    /** <resultsDir()>/<name>_cells.journal.jsonl; empty when file
     *  output is disabled (empty ASAP_RESULTS_DIR). */
    static std::string pathFor(const std::string &name);

    /**
     * Open the journal for sweep @p name over @p cellCount cells.
     * With @p resume, any existing journal is parsed first (loaded
     * records become queryable via find()) and new records append;
     * without it the file is truncated. Returns false — journal
     * disabled, all other calls no-ops — when file output is off or
     * the file cannot be opened (a warning is emitted; a sweep never
     * dies over its journal).
     */
    bool open(const std::string &name, std::size_t cellCount,
              bool resume);

    bool active() const { return fd_ >= 0; }

    /** The loaded result for @p cellIndex, if the journal has one and
     *  its identity hash matches @p key; nullptr otherwise. */
    const CellResult *find(std::size_t cellIndex,
                           std::uint64_t key) const;

    /**
     * Append one finished cell and fsync. Thread-safe (the sweep's
     * group workers call this concurrently). Write failures warn once
     * and disable the journal for the rest of the run.
     */
    void append(std::size_t cellIndex, std::uint64_t key,
                const CellResult &result);

    /**
     * Rewrite the journal in canonical cell-index order from the
     * sweep's final @p results. Mid-run the journal is necessarily in
     * completion order — thread-schedule-dependent — so a completed
     * sweep seals it to keep the on-disk results directory
     * thread-count-invariant like the CSV/JSON artifacts. A crash
     * during the rewrite at worst loses the journal, which a resume
     * answers by recomputing; it can never corrupt sweep results.
     */
    void seal(const std::vector<std::uint64_t> &keys,
              const std::vector<CellResult> &results);

    void close();

  private:
    int fd_ = -1;
    std::string name_;
    std::size_t cellCount_ = 0;
    std::mutex writeMutex_;
    std::map<std::size_t, std::pair<std::uint64_t, CellResult>> loaded_;
};

} // namespace asap::exp

#endif // ASAP_EXP_JOURNAL_HH
