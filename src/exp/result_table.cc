#include "exp/result_table.hh"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/logging.hh"

namespace asap::exp
{

void
ResultTable::addAverageRow(const std::string &name)
{
    if (rows_.empty())
        return;
    std::vector<double> avg(rows_[0].second.size(), 0.0);
    for (const auto &[rowName, values] : rows_) {
        for (std::size_t i = 0; i < values.size() && i < avg.size(); ++i)
            avg[i] += values[i];
    }
    for (double &v : avg)
        v /= static_cast<double>(rows_.size());
    addRow(name, std::move(avg));
}

std::string
ResultTable::toText() const
{
    std::string out = strprintf("\n=== %s ===\n", title_.c_str());
    out += strprintf("%-10s", "");
    for (const auto &column : columns_)
        out += strprintf("%12s", column.c_str());
    out += '\n';
    for (const auto &[name, values] : rows_) {
        out += strprintf("%-10s", name.c_str());
        for (const double value : values) {
            out += "  ";
            char buf[64];
            std::snprintf(buf, sizeof(buf), format_.c_str(), value);
            out += buf;
        }
        out += '\n';
    }
    return out;
}

std::string
ResultTable::toCsv() const
{
    std::string out = "# " + title_ + "\n";
    out += "# format: " + format_ + "\n";
    out += "row";
    for (const auto &column : columns_)
        out += "," + column;
    out += '\n';
    for (const auto &[name, values] : rows_) {
        out += name;
        for (const double value : values)
            out += "," + Json::numberToString(value);
        out += '\n';
    }
    return out;
}

Json
ResultTable::toJson() const
{
    Json json = Json::object();
    json.set("title", title_);
    json.set("format", format_);
    Json columns = Json::array();
    for (const auto &column : columns_)
        columns.push(column);
    json.set("columns", std::move(columns));
    Json rows = Json::array();
    for (const auto &[name, values] : rows_) {
        Json row = Json::object();
        row.set("name", name);
        Json vals = Json::array();
        for (const double value : values)
            vals.push(value);
        row.set("values", std::move(vals));
        rows.push(std::move(row));
    }
    json.set("rows", std::move(rows));
    return json;
}

std::string
resultsDir()
{
    if (const char *env = std::getenv("ASAP_RESULTS_DIR"))
        return env;
    return "results";
}

void
writeResultArtifact(const std::string &filename,
                    const std::string &content)
{
    const std::string dir = resultsDir();
    if (dir.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        warn("cannot create results dir %s: %s", dir.c_str(),
             ec.message().c_str());
        return;
    }
    const std::string path = dir + "/" + filename;
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        warn("cannot write %s", path.c_str());
        return;
    }
    out << content;
}

void
emit(const std::string &name, const ResultTable &table)
{
    std::fputs(table.toText().c_str(), stdout);
    std::fflush(stdout);
    writeResultArtifact(name + ".csv", table.toCsv());
    writeResultArtifact(name + ".json", table.toJson().dump(2) + "\n");
}

} // namespace asap::exp
