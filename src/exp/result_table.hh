/**
 * @file
 * Result aggregation and emission for the figure/table benchmarks.
 *
 * A ResultTable is the displayed artifact of an experiment: a titled
 * grid of (row label, column label) -> value. It renders the exact
 * aligned-text layout the paper-figure binaries have always printed
 * (formerly asapbench::printTable), and additionally serializes to CSV
 * and JSON so that a run leaves machine-readable output behind for
 * trajectory tracking (BENCH_*.json) and plotting.
 */

#ifndef ASAP_EXP_RESULT_TABLE_HH
#define ASAP_EXP_RESULT_TABLE_HH

#include <string>
#include <utility>
#include <vector>

#include "exp/json.hh"

namespace asap::exp
{

class ResultTable
{
  public:
    using Row = std::pair<std::string, std::vector<double>>;

    ResultTable(std::string title, std::vector<std::string> columns,
                std::string format = "%10.1f")
        : title_(std::move(title)), columns_(std::move(columns)),
          format_(std::move(format))
    {}

    void
    addRow(std::string name, std::vector<double> values)
    {
        rows_.emplace_back(std::move(name), std::move(values));
    }

    /** Append a column-wise average over the current rows. */
    void addAverageRow(const std::string &name = "Average");

    const std::string &title() const { return title_; }
    const std::vector<std::string> &columns() const { return columns_; }
    const std::vector<Row> &rows() const { return rows_; }
    const std::string &format() const { return format_; }

    /** The aligned text block the figure binaries print. */
    std::string toText() const;

    /** "# title" comment, header row, one line per row. */
    std::string toCsv() const;

    Json toJson() const;

  private:
    std::string title_;
    std::vector<std::string> columns_;
    std::string format_;
    std::vector<Row> rows_;
};

/** Percentage reduction of @p value relative to @p baseline. */
inline double
reductionPct(double baseline, double value)
{
    return baseline <= 0.0 ? 0.0 : 100.0 * (1.0 - value / baseline);
}

/**
 * Directory for machine-readable results: $ASAP_RESULTS_DIR, or
 * "results" when unset. An empty ASAP_RESULTS_DIR disables file output.
 */
std::string resultsDir();

/**
 * Write @p content to <resultsDir()>/<filename>, creating the
 * directory if needed; a no-op when file output is disabled. Failures
 * warn and continue (results emission never kills an experiment).
 */
void writeResultArtifact(const std::string &filename,
                         const std::string &content);

/**
 * Print @p table to stdout and, if file output is enabled, write
 * <dir>/<name>.csv and <dir>/<name>.json (creating <dir> if needed).
 * Several tables per benchmark use distinct names ("fig8_iso", ...).
 */
void emit(const std::string &name, const ResultTable &table);

} // namespace asap::exp

#endif // ASAP_EXP_RESULT_TABLE_HH
