#include "obs/timeline.hh"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "common/fault_inject.hh"
#include "common/logging.hh"

namespace asap::obs
{

namespace
{

std::string
u64Str(std::uint64_t v)
{
    return strprintf("%llu", static_cast<unsigned long long>(v));
}

/** Wrapping u64 deltas read as signed: a shrinking counter (e.g.
 *  buddy.freeFrames) serializes as a negative number instead of a
 *  ~2^64 wrap artifact. The stored u64 is recovered exactly by
 *  reinterpreting back. */
std::string
i64Str(std::uint64_t v)
{
    return strprintf("%lld", static_cast<long long>(v));
}

/** JSON array of strings from a name list. */
std::string
nameArray(const std::vector<std::string> &names)
{
    std::string out = "[";
    for (std::size_t i = 0; i < names.size(); ++i) {
        out += i ? ",\"" : "\"";
        out += names[i];
        out += '"';
    }
    out += ']';
    return out;
}

/**
 * Write @p text to @p path with create/truncate semantics and fsync
 * before close — the timeline artifact either exists completely or the
 * failure is reported; no torn tail on a crash right after return.
 * Throws StatusError (io_error → Unavailable) on any failure; the
 * "timeline-write" fault probe injects exactly that shape.
 */
void
writeFileSynced(const std::string &path, const std::string &text)
{
    fault::maybeFail("timeline-write");
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    io_error_if(fd < 0, "timeline: cannot open %s: %s", path.c_str(),
                std::strerror(errno));
    std::size_t off = 0;
    while (off < text.size()) {
        const ssize_t n =
            ::write(fd, text.data() + off, text.size() - off);
        if (n < 0) {
            const int err = errno;
            ::close(fd);
            io_error("timeline: write %s: %s", path.c_str(),
                     std::strerror(err));
        }
        off += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        const int err = errno;
        ::close(fd);
        io_error("timeline: fsync %s: %s", path.c_str(),
                 std::strerror(err));
    }
    ::close(fd);
}

} // namespace

Histogram
histogramDiff(const Histogram &cur, const Histogram &prev)
{
    Histogram out;
    for (std::size_t i = 0; i < Histogram::numBuckets; ++i)
        out.setBucketCount(i,
                           cur.bucketCount(i) - prev.bucketCount(i));
    out.setTotals(cur.count() - prev.count(), cur.sum() - prev.sum());
    return out;
}

void
Timeline::sample(std::uint64_t measuredAccesses, Cycles now,
                 const Counters &counters, const Histogram &walkHist,
                 const Histogram &dataHist, const Counters &gauges)
{
    if (epochs_.empty()) {
        counterNames_.reserve(counters.size());
        for (const auto &counter : counters)
            counterNames_.push_back(counter.first);
        gaugeNames_.reserve(gauges.size());
        for (const auto &gauge : gauges)
            gaugeNames_.push_back(gauge.first);
        prevCounters_.assign(counters.size(), 0);
    } else {
        // One Timeline observes one run: the registered name lists
        // cannot change between boundaries of the same machine.
        panic_if(counters.size() != counterNames_.size() ||
                     gauges.size() != gaugeNames_.size(),
                 "timeline: name list changed mid-run "
                 "(%zu/%zu counters, %zu/%zu gauges)",
                 counters.size(), counterNames_.size(), gauges.size(),
                 gaugeNames_.size());
    }

    TimelineEpoch epoch;
    epoch.index = epochs_.size();
    epoch.startAccess = prevAccess_;
    epoch.endAccess = measuredAccesses;
    epoch.startCycle = prevCycle_;
    epoch.endCycle = now;

    const Histogram walk = histogramDiff(walkHist, prevWalk_);
    epoch.walkCount = walk.count();
    epoch.walkP50 = walk.p50();
    epoch.walkP90 = walk.p90();
    epoch.walkP99 = walk.p99();
    epoch.walkP999 = walk.p999();
    const Histogram data = histogramDiff(dataHist, prevData_);
    epoch.dataCount = data.count();
    epoch.dataP50 = data.p50();
    epoch.dataP99 = data.p99();

    epoch.counterDeltas.reserve(counters.size());
    for (std::size_t i = 0; i < counters.size(); ++i) {
        panic_if(counters[i].first != counterNames_[i],
                 "timeline: counter %zu renamed (%s vs %s)", i,
                 counters[i].first.c_str(), counterNames_[i].c_str());
        // Wrapping subtraction: deltas of any (even non-monotonic)
        // counter sum back to the lifetime value exactly.
        epoch.counterDeltas.push_back(counters[i].second -
                                      prevCounters_[i]);
        prevCounters_[i] = counters[i].second;
    }
    epoch.gauges.reserve(gauges.size());
    for (const auto &gauge : gauges)
        epoch.gauges.push_back(gauge.second);

    prevWalk_ = walkHist;
    prevData_ = dataHist;
    prevAccess_ = measuredAccesses;
    prevCycle_ = now;
    epochs_.push_back(std::move(epoch));
}

std::string
Timeline::jsonl() const
{
    std::string out;
    out.reserve(256 + epochs_.size() * 512);
    out += strprintf("{\"timeline\":\"asap-run-timeline\",\"version\":1,"
                     "\"epochAccesses\":\"%s\",\"counters\":%s,"
                     "\"gauges\":%s}\n",
                     u64Str(epochAccesses_).c_str(),
                     nameArray(counterNames_).c_str(),
                     nameArray(gaugeNames_).c_str());
    for (const TimelineEpoch &epoch : epochs_) {
        out += strprintf(
            "{\"epoch\":\"%s\",\"startAccess\":\"%s\","
            "\"endAccess\":\"%s\",\"startCycle\":\"%s\","
            "\"endCycle\":\"%s\",\"walkCount\":\"%s\","
            "\"walkP50\":\"%s\",\"walkP90\":\"%s\",\"walkP99\":\"%s\","
            "\"walkP999\":\"%s\",\"dataCount\":\"%s\","
            "\"dataP50\":\"%s\",\"dataP99\":\"%s\",\"deltas\":[",
            u64Str(epoch.index).c_str(), u64Str(epoch.startAccess).c_str(),
            u64Str(epoch.endAccess).c_str(),
            u64Str(epoch.startCycle).c_str(),
            u64Str(epoch.endCycle).c_str(), u64Str(epoch.walkCount).c_str(),
            u64Str(epoch.walkP50).c_str(), u64Str(epoch.walkP90).c_str(),
            u64Str(epoch.walkP99).c_str(), u64Str(epoch.walkP999).c_str(),
            u64Str(epoch.dataCount).c_str(), u64Str(epoch.dataP50).c_str(),
            u64Str(epoch.dataP99).c_str());
        for (std::size_t i = 0; i < epoch.counterDeltas.size(); ++i) {
            out += i ? ",\"" : "\"";
            out += i64Str(epoch.counterDeltas[i]);
            out += '"';
        }
        out += "],\"gauges\":[";
        for (std::size_t i = 0; i < epoch.gauges.size(); ++i) {
            out += i ? ",\"" : "\"";
            out += u64Str(epoch.gauges[i]);
            out += '"';
        }
        out += "]}\n";
    }
    return out;
}

std::string
Timeline::csv() const
{
    std::string out = "epoch,startAccess,endAccess,startCycle,endCycle,"
                      "walkCount,walkP50,walkP90,walkP99,walkP999,"
                      "dataCount,dataP50,dataP99";
    for (const std::string &name : counterNames_)
        out += ",d:" + name;
    for (const std::string &name : gaugeNames_)
        out += ",g:" + name;
    out += '\n';
    for (const TimelineEpoch &epoch : epochs_) {
        out += strprintf("%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,%s",
                         u64Str(epoch.index).c_str(),
                         u64Str(epoch.startAccess).c_str(),
                         u64Str(epoch.endAccess).c_str(),
                         u64Str(epoch.startCycle).c_str(),
                         u64Str(epoch.endCycle).c_str(),
                         u64Str(epoch.walkCount).c_str(),
                         u64Str(epoch.walkP50).c_str(),
                         u64Str(epoch.walkP90).c_str(),
                         u64Str(epoch.walkP99).c_str(),
                         u64Str(epoch.walkP999).c_str(),
                         u64Str(epoch.dataCount).c_str(),
                         u64Str(epoch.dataP50).c_str(),
                         u64Str(epoch.dataP99).c_str());
        for (const std::uint64_t delta : epoch.counterDeltas)
            out += "," + i64Str(delta);
        for (const std::uint64_t gauge : epoch.gauges)
            out += "," + u64Str(gauge);
        out += '\n';
    }
    return out;
}

std::string
Timeline::chromeCounterEvents() const
{
    std::string out;
    out.reserve(epochs_.size() *
                (64 * (13 + counterNames_.size() + gaugeNames_.size())));
    const auto event = [&out](const char *prefix, const std::string &name,
                              Cycles ts, const std::string &value) {
        if (!out.empty())
            out += ",\n";
        // Counter values render as doubles in the viewer; epoch deltas
        // and gauges are far below 2^53, so the decimal stays exact.
        out += strprintf("{\"name\":\"%s%s\",\"cat\":\"asap\","
                         "\"ph\":\"C\",\"ts\":%s,\"pid\":0,"
                         "\"args\":{\"value\":%s}}",
                         prefix, name.c_str(), u64Str(ts).c_str(),
                         value.c_str());
    };
    for (const TimelineEpoch &epoch : epochs_) {
        const Cycles ts = epoch.endCycle;
        event("", "interval:walkP50", ts, u64Str(epoch.walkP50));
        event("", "interval:walkP99", ts, u64Str(epoch.walkP99));
        event("", "interval:walkP999", ts, u64Str(epoch.walkP999));
        event("", "interval:dataP99", ts, u64Str(epoch.dataP99));
        for (std::size_t i = 0; i < gaugeNames_.size(); ++i)
            event("g:", gaugeNames_[i], ts, u64Str(epoch.gauges[i]));
        // Deltas serialize signed (see i64Str): a shrinking counter
        // plots as a dip, not a 2^64 spike.
        for (std::size_t i = 0; i < counterNames_.size(); ++i)
            event("d:", counterNames_[i], ts,
                  i64Str(epoch.counterDeltas[i]));
    }
    return out;
}

Status
Timeline::writeJsonl(const std::string &path) const
{
    return runToStatus([&] { writeFileSynced(path, jsonl()); });
}

Status
Timeline::writeCsv(const std::string &path) const
{
    return runToStatus([&] { writeFileSynced(path, csv()); });
}

} // namespace asap::obs
