/**
 * @file
 * Counter registry: components expose their lifetime counters under
 * stable dotted names ("l1d.hits", "tlb.l2Misses", "buddy.freeFrames",
 * ...) instead of every experiment hand-plumbing columns. Readers
 * capture their values at registration, so Simulator::run (and the
 * multi-core model) build a fresh Registry per snapshot — every
 * timeline epoch and the end of the run — and store the last one in
 * RunStats::counters; the sweep layer emits whatever it finds —
 * adding a counter to a component makes it appear in every CSV/JSON
 * artifact with no further wiring.
 */

#ifndef ASAP_OBS_REGISTRY_HH
#define ASAP_OBS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace asap::obs
{

class Registry
{
  public:
    using Reader = std::function<std::uint64_t()>;

    /** Register @p reader under @p name; panics on a duplicate name
     *  (two components claiming one column is always a wiring bug). */
    void add(std::string name, Reader reader);

    /** Evaluate every reader, in registration order. */
    std::vector<std::pair<std::string, std::uint64_t>> snapshot() const;

    std::size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }

  private:
    std::vector<std::pair<std::string, Reader>> entries_;
};

} // namespace asap::obs

#endif // ASAP_OBS_REGISTRY_HH
