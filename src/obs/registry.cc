#include "obs/registry.hh"

#include "common/logging.hh"

namespace asap::obs
{

void
Registry::add(std::string name, std::uint64_t value)
{
    for (const auto &entry : entries_) {
        panic_if(entry.first == name,
                 "duplicate counter registration '%s'", name.c_str());
    }
    entries_.emplace_back(std::move(name), value);
}

void
addCounters(Counters &into, const Counters &from)
{
    if (into.empty()) {
        into = from;
        return;
    }
    panic_if(into.size() != from.size(),
             "counter lists differ (%zu vs %zu)", into.size(),
             from.size());
    for (std::size_t i = 0; i < into.size(); ++i) {
        panic_if(into[i].first != from[i].first,
                 "counter %zu name mismatch (%s vs %s)", i,
                 into[i].first.c_str(), from[i].first.c_str());
        into[i].second += from[i].second;
    }
}

} // namespace asap::obs
