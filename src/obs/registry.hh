/**
 * @file
 * Counter registry: components expose their lifetime counters under
 * stable dotted names ("l1d.hits", "tlb.l2Misses", "buddy.freeFrames",
 * ...) instead of every experiment hand-plumbing columns. A Registry
 * is the list of values its components read when they register, so
 * Simulator::run (and the multi-core model) build a fresh Registry per
 * snapshot — every timeline epoch and the end of the run — and store
 * the last one in RunStats::counters; the sweep layer emits whatever
 * it finds — adding a counter to a component makes it appear in every
 * CSV/JSON artifact with no further wiring.
 */

#ifndef ASAP_OBS_REGISTRY_HH
#define ASAP_OBS_REGISTRY_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace asap::obs
{

/** Named u64 values in a fixed order: counter snapshots (and the
 *  timeline's gauges). */
using Counters = std::vector<std::pair<std::string, std::uint64_t>>;

class Registry
{
  public:
    /** Record @p value under @p name; panics on a duplicate name
     *  (two components claiming one column is always a wiring bug). */
    void add(std::string name, std::uint64_t value);

    /** Every recorded value, in registration order. */
    const Counters &snapshot() const { return entries_; }

  private:
    Counters entries_;
};

/**
 * Add @p from into @p into position by position; an empty @p into
 * takes a copy. Identically configured components register the
 * identical name list in the identical order, so a length or name
 * mismatch means lists from different configurations were merged — a
 * programming error, and a panic.
 */
void addCounters(Counters &into, const Counters &from);

} // namespace asap::obs

#endif // ASAP_OBS_REGISTRY_HH
