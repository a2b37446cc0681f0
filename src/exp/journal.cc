#include "exp/journal.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.hh"
#include "exp/result_table.hh"

namespace asap::exp
{

std::uint64_t
fnv1a64(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        hash ^= static_cast<std::uint8_t>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

namespace
{

std::string
u64Str(std::uint64_t v)
{
    return strprintf("%llu", static_cast<unsigned long long>(v));
}

/** Strict u64 parse of a Json string member; false on absence or
 *  malformed digits. */
bool
getU64(const Json &obj, const char *key, std::uint64_t &out)
{
    const Json *member = obj.find(key);
    if (!member || member->type() != Json::Type::String)
        return false;
    const std::string &s = member->asString();
    if (s.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(s.c_str(), &end, 10);
    return errno == 0 && end == s.c_str() + s.size();
}

Json
sampleStatToJson(const SampleStat &stat)
{
    Json out = Json::object();
    out.set("count", u64Str(stat.count()));
    out.set("sum", u64Str(stat.sum()));
    out.set("min", u64Str(stat.min()));
    out.set("max", u64Str(stat.max()));
    // The exact second moment, as u64 halves (u128 has no decimal
    // printer); needed so a resumed sweep's variance stays bit-exact.
    out.set("sqHi", u64Str(stat.sumSquaresHi()));
    out.set("sqLo", u64Str(stat.sumSquaresLo()));
    return out;
}

bool
sampleStatFromJson(const Json &json, SampleStat &stat)
{
    std::uint64_t count, sum, min, max;
    if (!getU64(json, "count", count) || !getU64(json, "sum", sum) ||
        !getU64(json, "min", min) || !getU64(json, "max", max))
        return false;
    // Absent in journals written before the moment was tracked — an
    // old journal restores with a zero second moment rather than
    // failing its whole cell.
    std::uint64_t sqHi = 0, sqLo = 0;
    getU64(json, "sqHi", sqHi);
    getU64(json, "sqLo", sqLo);
    stat.restore(count, sum, min, max, sqHi, sqLo);
    return true;
}

Json
histToJson(const obs::Histogram &hist)
{
    Json out = Json::object();
    out.set("count", u64Str(hist.count()));
    out.set("sum", u64Str(hist.sum()));
    Json buckets = Json::object();
    for (std::size_t i = 0; i < obs::Histogram::numBuckets; ++i) {
        if (hist.bucketCount(i))
            buckets.set(u64Str(i), u64Str(hist.bucketCount(i)));
    }
    out.set("b", std::move(buckets));
    return out;
}

bool
histFromJson(const Json &json, obs::Histogram &hist)
{
    std::uint64_t count, sum;
    if (!getU64(json, "count", count) || !getU64(json, "sum", sum))
        return false;
    const Json *buckets = json.find("b");
    if (!buckets || buckets->type() != Json::Type::Object)
        return false;
    hist.reset();
    for (const auto &[key, value] : buckets->members()) {
        char *end = nullptr;
        errno = 0;
        const std::uint64_t index = std::strtoull(key.c_str(), &end, 10);
        if (errno != 0 || end != key.c_str() + key.size() ||
            index >= obs::Histogram::numBuckets ||
            value.type() != Json::Type::String)
            return false;
        std::uint64_t n;
        errno = 0;
        n = std::strtoull(value.asString().c_str(), &end, 10);
        if (errno != 0 ||
            end != value.asString().c_str() + value.asString().size())
            return false;
        hist.setBucketCount(index, n);
    }
    hist.setTotals(count, sum);
    return true;
}

Json
levelDistToJson(const LevelDistribution &dist)
{
    Json counts = Json::array();
    for (std::size_t i = 0; i < numMemLevels; ++i)
        counts.push(u64Str(dist.count(static_cast<MemLevel>(i))));
    return counts;
}

bool
levelDistFromJson(const Json &json, LevelDistribution &dist)
{
    if (json.type() != Json::Type::Array ||
        json.items().size() != numMemLevels)
        return false;
    dist.reset();
    for (std::size_t i = 0; i < numMemLevels; ++i) {
        const Json &item = json.items()[i];
        if (item.type() != Json::Type::String)
            return false;
        char *end = nullptr;
        errno = 0;
        const std::uint64_t n =
            std::strtoull(item.asString().c_str(), &end, 10);
        if (errno != 0 ||
            end != item.asString().c_str() + item.asString().size())
            return false;
        dist.restoreCount(static_cast<MemLevel>(i), n);
    }
    return true;
}

Json
asapStatsToJson(const AsapEngineStats &stats)
{
    Json out = Json::object();
    out.set("triggers", u64Str(stats.triggers));
    out.set("rangeHits", u64Str(stats.rangeHits));
    out.set("attempted", u64Str(stats.attempted));
    out.set("issued", u64Str(stats.issued));
    return out;
}

bool
asapStatsFromJson(const Json &json, AsapEngineStats &stats)
{
    return getU64(json, "triggers", stats.triggers) &&
           getU64(json, "rangeHits", stats.rangeHits) &&
           getU64(json, "attempted", stats.attempted) &&
           getU64(json, "issued", stats.issued);
}

Json
runStatsToJson(const RunStats &stats)
{
    Json out = Json::object();
    out.set("accesses", u64Str(stats.accesses));
    out.set("tlbL1Hits", u64Str(stats.tlbL1Hits));
    out.set("tlbL2Hits", u64Str(stats.tlbL2Hits));
    out.set("tlbMisses", u64Str(stats.tlbMisses));
    out.set("faults", u64Str(stats.faults));
    out.set("totalCycles", u64Str(stats.totalCycles));
    out.set("walkCycles", u64Str(stats.walkCycles));
    out.set("dataCycles", u64Str(stats.dataCycles));
    out.set("computeCycles", u64Str(stats.computeCycles));
    out.set("walkLatency", sampleStatToJson(stats.walkLatency));
    Json levelDist = Json::array();
    for (const LevelDistribution &dist : stats.levelDist)
        levelDist.push(levelDistToJson(dist));
    out.set("levelDist", std::move(levelDist));
    out.set("walkHist", histToJson(stats.walkHist));
    out.set("dataHist", histToJson(stats.dataHist));
    Json levelHist = Json::array();
    for (const obs::Histogram &hist : stats.levelHist)
        levelHist.push(histToJson(hist));
    out.set("levelHist", std::move(levelHist));
    out.set("appAsap", asapStatsToJson(stats.appAsap));
    out.set("hostAsap", asapStatsToJson(stats.hostAsap));
    Json dyn = Json::object();
    for (const OsDynStats::Field &f : OsDynStats::fields())
        dyn.set(f.name, u64Str(stats.dyn.*f.member));
    out.set("dyn", std::move(dyn));
    Json counters = Json::array();
    for (const auto &[name, value] : stats.counters) {
        Json pair = Json::array();
        pair.push(name);
        pair.push(u64Str(value));
        counters.push(std::move(pair));
    }
    out.set("counters", std::move(counters));
    // profile: intentionally absent (nondeterministic; see file doc).
    return out;
}

bool
runStatsFromJson(const Json &json, RunStats &stats)
{
    if (json.type() != Json::Type::Object)
        return false;
    if (!getU64(json, "accesses", stats.accesses) ||
        !getU64(json, "tlbL1Hits", stats.tlbL1Hits) ||
        !getU64(json, "tlbL2Hits", stats.tlbL2Hits) ||
        !getU64(json, "tlbMisses", stats.tlbMisses) ||
        !getU64(json, "faults", stats.faults) ||
        !getU64(json, "totalCycles", stats.totalCycles) ||
        !getU64(json, "walkCycles", stats.walkCycles) ||
        !getU64(json, "dataCycles", stats.dataCycles) ||
        !getU64(json, "computeCycles", stats.computeCycles))
        return false;
    const Json *walkLatency = json.find("walkLatency");
    if (!walkLatency || !sampleStatFromJson(*walkLatency,
                                            stats.walkLatency))
        return false;
    const Json *levelDist = json.find("levelDist");
    if (!levelDist || levelDist->type() != Json::Type::Array ||
        levelDist->items().size() != stats.levelDist.size())
        return false;
    for (std::size_t i = 0; i < stats.levelDist.size(); ++i) {
        if (!levelDistFromJson(levelDist->items()[i],
                               stats.levelDist[i]))
            return false;
    }
    const Json *walkHist = json.find("walkHist");
    const Json *dataHist = json.find("dataHist");
    if (!walkHist || !histFromJson(*walkHist, stats.walkHist) ||
        !dataHist || !histFromJson(*dataHist, stats.dataHist))
        return false;
    const Json *levelHist = json.find("levelHist");
    if (!levelHist || levelHist->type() != Json::Type::Array ||
        levelHist->items().size() != stats.levelHist.size())
        return false;
    for (std::size_t i = 0; i < stats.levelHist.size(); ++i) {
        if (!histFromJson(levelHist->items()[i], stats.levelHist[i]))
            return false;
    }
    const Json *appAsap = json.find("appAsap");
    const Json *hostAsap = json.find("hostAsap");
    if (!appAsap || !asapStatsFromJson(*appAsap, stats.appAsap) ||
        !hostAsap || !asapStatsFromJson(*hostAsap, stats.hostAsap))
        return false;
    const Json *dyn = json.find("dyn");
    if (!dyn || dyn->type() != Json::Type::Object)
        return false;
    for (const OsDynStats::Field &f : OsDynStats::fields()) {
        if (!getU64(*dyn, f.name, stats.dyn.*f.member))
            return false;
    }
    const Json *counters = json.find("counters");
    if (!counters || counters->type() != Json::Type::Array)
        return false;
    stats.counters.clear();
    for (const Json &pair : counters->items()) {
        if (pair.type() != Json::Type::Array ||
            pair.items().size() != 2 ||
            pair.items()[0].type() != Json::Type::String ||
            pair.items()[1].type() != Json::Type::String)
            return false;
        char *end = nullptr;
        const std::string &digits = pair.items()[1].asString();
        errno = 0;
        const std::uint64_t value =
            std::strtoull(digits.c_str(), &end, 10);
        if (errno != 0 || end != digits.c_str() + digits.size())
            return false;
        stats.counters.emplace_back(pair.items()[0].asString(), value);
    }
    return true;
}

bool
statusCodeFromName(const std::string &name, StatusCode &code)
{
    for (unsigned i = 0; i <= static_cast<unsigned>(StatusCode::Internal);
         ++i) {
        const auto candidate = static_cast<StatusCode>(i);
        if (name == statusCodeName(candidate)) {
            code = candidate;
            return true;
        }
    }
    return false;
}

} // namespace

Json
cellResultToJson(const CellResult &result)
{
    Json out = Json::object();
    out.set("row", result.row);
    out.set("column", result.column);
    out.set("measured", result.measured);
    out.set("statusCode", statusCodeName(result.status.code()));
    if (!result.status.message().empty())
        out.set("statusMessage", result.status.message());
    out.set("attempts",
            static_cast<double>(result.attempts));
    if (result.measured)
        out.set("stats", runStatsToJson(result.stats));
    if (!result.extra.empty()) {
        Json extra = Json::object();
        for (const auto &[key, value] : result.extra)
            extra.set(key, value);
        out.set("extra", std::move(extra));
    }
    return out;
}

bool
cellResultFromJson(const Json &json, CellResult &result)
{
    if (json.type() != Json::Type::Object)
        return false;
    const Json *row = json.find("row");
    const Json *column = json.find("column");
    const Json *measured = json.find("measured");
    const Json *statusCode = json.find("statusCode");
    const Json *attempts = json.find("attempts");
    if (!row || row->type() != Json::Type::String || !column ||
        column->type() != Json::Type::String || !measured ||
        measured->type() != Json::Type::Bool || !statusCode ||
        statusCode->type() != Json::Type::String || !attempts ||
        attempts->type() != Json::Type::Number)
        return false;
    CellResult out;
    out.row = row->asString();
    out.column = column->asString();
    out.measured = measured->asBool();
    StatusCode code;
    if (!statusCodeFromName(statusCode->asString(), code))
        return false;
    const Json *message = json.find("statusMessage");
    if (message && message->type() != Json::Type::String)
        return false;
    out.status = Status(code, message ? message->asString()
                                      : std::string());
    out.attempts = static_cast<unsigned>(attempts->asNumber());
    if (out.measured) {
        const Json *stats = json.find("stats");
        if (!stats || !runStatsFromJson(*stats, out.stats))
            return false;
    }
    const Json *extra = json.find("extra");
    if (extra) {
        if (extra->type() != Json::Type::Object)
            return false;
        for (const auto &[key, value] : extra->members()) {
            if (value.type() != Json::Type::Number)
                return false;
            out.extra[key] = value.asNumber();
        }
    }
    result = std::move(out);
    return true;
}

// ---------------------------------------------------------------------------
// CellJournal
// ---------------------------------------------------------------------------

namespace
{

std::string
headerLine(const std::string &name, std::size_t cellCount)
{
    Json header = Json::object();
    header.set("journal", "asap-sweep-cells");
    header.set("version", 1);
    header.set("sweep", name);
    header.set("cells", static_cast<double>(cellCount));
    return header.dump() + "\n";
}

std::string
recordLine(std::size_t cellIndex, std::uint64_t key,
           const CellResult &result)
{
    Json record = cellResultToJson(result);
    // Prepend identity by rebuilding in order (Json keeps insertion
    // order; cell/key leading makes the journal greppable).
    Json line = Json::object();
    line.set("cell", static_cast<double>(cellIndex));
    line.set("key", strprintf("%llx",
                              static_cast<unsigned long long>(key)));
    for (const auto &[k, v] : record.members())
        line.set(k, v);
    return line.dump() + "\n";
}

} // namespace

std::string
CellJournal::pathFor(const std::string &name)
{
    const std::string dir = resultsDir();
    if (dir.empty())
        return {};
    return dir + "/" + name + "_cells.journal.jsonl";
}

bool
CellJournal::open(const std::string &name, std::size_t cellCount,
                  bool resume)
{
    close();
    const std::string path = pathFor(name);
    if (path.empty())
        return false;
    name_ = name;
    cellCount_ = cellCount;

    bool headerOk = false;
    std::uint64_t goodBytes = 0;
    if (resume) {
        std::ifstream in(path);
        std::string line;
        bool first = true;
        while (in && std::getline(in, line)) {
            if (line.empty()) {
                goodBytes += 1;
                continue;
            }
            const auto doc = Json::parse(line);
            if (!doc) {
                // A torn final line (killed mid-write) is expected;
                // anything after it would be suspect anyway. New
                // records will overwrite it (goodBytes truncation).
                break;
            }
            goodBytes += line.size() + 1;
            if (first) {
                first = false;
                const Json *kind = doc->find("journal");
                const Json *sweep = doc->find("sweep");
                const Json *cells = doc->find("cells");
                headerOk =
                    kind && kind->type() == Json::Type::String &&
                    kind->asString() == "asap-sweep-cells" && sweep &&
                    sweep->type() == Json::Type::String &&
                    sweep->asString() == name && cells &&
                    cells->type() == Json::Type::Number &&
                    static_cast<std::size_t>(cells->asNumber()) ==
                        cellCount;
                if (!headerOk) {
                    warn("journal %s does not match this sweep; "
                         "recomputing all cells",
                         path.c_str());
                    break;
                }
                continue;
            }
            const Json *cell = doc->find("cell");
            const Json *key = doc->find("key");
            if (!cell || cell->type() != Json::Type::Number || !key ||
                key->type() != Json::Type::String)
                continue;
            std::uint64_t keyValue = 0;
            {
                char *end = nullptr;
                errno = 0;
                keyValue = std::strtoull(key->asString().c_str(), &end,
                                         16);
                if (errno != 0 ||
                    end != key->asString().c_str() +
                               key->asString().size())
                    continue;
            }
            CellResult result;
            if (!cellResultFromJson(*doc, result))
                continue;
            const auto index =
                static_cast<std::size_t>(cell->asNumber());
            if (index >= cellCount)
                continue;
            result.resumed = true;
            loaded_[index] = {keyValue, std::move(result)};
        }
        if (!headerOk)
            loaded_.clear();
        // The final parsed line may lack its newline; never claim more
        // bytes than the file has.
        std::error_code ec;
        const auto size = std::filesystem::file_size(path, ec);
        if (!ec && goodBytes > size)
            goodBytes = size;
    }

    {
        std::error_code ec;
        std::filesystem::create_directories(resultsDir(), ec);
        if (ec) {
            warn("cannot create results dir %s: %s (running "
                 "unjournaled)",
                 resultsDir().c_str(), ec.message().c_str());
            return false;
        }
    }

    // A resume that salvaged nothing (no journal, or a mismatched one)
    // starts the file over rather than appending after stale records.
    const bool append = resume && !loaded_.empty();
    const int flags = O_WRONLY | O_CREAT | (append ? O_APPEND : O_TRUNC);
    fd_ = ::open(path.c_str(), flags, 0644);
    if (fd_ < 0) {
        warn("cannot open sweep journal %s: %s (running unjournaled)",
             path.c_str(), std::strerror(errno));
        return false;
    }
    if (append && ::ftruncate(fd_, static_cast<off_t>(goodBytes)) != 0) {
        warn("cannot trim sweep journal %s: %s (running unjournaled)",
             path.c_str(), std::strerror(errno));
        ::close(fd_);
        fd_ = -1;
        loaded_.clear();
        return false;
    }
    if (!append) {
        const std::string line = headerLine(name, cellCount);
        if (::write(fd_, line.data(), line.size()) !=
                static_cast<ssize_t>(line.size()) ||
            ::fsync(fd_) != 0) {
            warn("cannot write sweep journal %s: %s (running "
                 "unjournaled)",
                 path.c_str(), std::strerror(errno));
            ::close(fd_);
            fd_ = -1;
            return false;
        }
    }
    return true;
}

const CellResult *
CellJournal::find(std::size_t cellIndex, std::uint64_t key) const
{
    const auto it = loaded_.find(cellIndex);
    if (it == loaded_.end() || it->second.first != key)
        return nullptr;
    return &it->second.second;
}

void
CellJournal::append(std::size_t cellIndex, std::uint64_t key,
                    const CellResult &result)
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    if (fd_ < 0)
        return;
    const std::string text = recordLine(cellIndex, key, result);
    if (::write(fd_, text.data(), text.size()) !=
            static_cast<ssize_t>(text.size()) ||
        ::fsync(fd_) != 0) {
        warn("sweep journal write failed: %s (journal disabled for the "
             "rest of this run)",
             std::strerror(errno));
        ::close(fd_);
        fd_ = -1;
    }
}

void
CellJournal::seal(const std::vector<std::uint64_t> &keys,
                  const std::vector<CellResult> &results)
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    if (fd_ < 0 || keys.size() != results.size() ||
        results.size() != cellCount_)
        return;
    std::string text = headerLine(name_, cellCount_);
    for (std::size_t i = 0; i < results.size(); ++i)
        text += recordLine(i, keys[i], results[i]);
    if (::ftruncate(fd_, 0) != 0 ||
        ::lseek(fd_, 0, SEEK_SET) != 0 ||
        ::write(fd_, text.data(), text.size()) !=
            static_cast<ssize_t>(text.size()) ||
        ::fsync(fd_) != 0) {
        warn("sweep journal seal failed: %s (a resume will recompute)",
             std::strerror(errno));
        ::close(fd_);
        fd_ = -1;
    }
}

void
CellJournal::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    loaded_.clear();
}

} // namespace asap::exp
