/**
 * @file
 * OsDynamics: applies an OsEventStream to a live System and the
 * ShootdownTarget (sim/machine.hh) its translations live in, as the
 * access loop consumes accesses.
 *
 * AccessStream (sim/simulator.hh) calls applyDue() at batch boundaries
 * (and caps each batch at the next event offset, so events fire at
 * *exact* access counts regardless of batching). Application is the
 * OS + hypervisor + hardware-shootdown choreography:
 *
 *  - Mmap      : System::mmap (reserving ASAP regions, and under
 *                virtualization backing them contiguously in the host),
 *                then a range-register descriptor refresh;
 *  - Munmap    : System::munmap (frames, PT prune, region release),
 *                then the targeted TLB/PWC shootdown of the dead range
 *                and a descriptor refresh;
 *  - MinorFault: System::touch per page (demand allocation through the
 *                existing allocators — the same path walk faults take);
 *  - MadviseFree: System::madviseFree + targeted shootdown (the VMA and
 *                its ASAP region survive; refaults refill in place);
 *  - Extend    : System::extendVma — in-place region extension,
 *                relocation, or growth holes (Section 3.7.2) — plus a
 *                descriptor refresh;
 *  - ReleaseChurn: System::releaseMachineChurn (tenant departure).
 *
 * Everything is deterministic: the stream is data, the System reacts
 * deterministically, and the shootdowns perturb no RNG.
 */

#ifndef ASAP_DYN_DYNAMICS_HH
#define ASAP_DYN_DYNAMICS_HH

#include <cstdint>
#include <limits>
#include <unordered_map>

#include "dyn/os_events.hh"
#include "sim/machine.hh"
#include "sim/system.hh"

namespace asap
{

class OsDynamics
{
  public:
    /** @p stream may be nullptr or empty (a static run); shootdowns
     *  and descriptor refreshes go to @p target. */
    OsDynamics(const OsEventStream *stream, System &system,
               ShootdownTarget &target)
        : stream_(stream), system_(system), target_(target)
    {}

    bool active() const { return stream_ && !stream_->empty(); }

    /** Apply every event with atAccess <= @p consumed, in order.
     *  @p now timestamps the events on an attached trace sink; it never
     *  influences what the events do. */
    void
    applyDue(std::uint64_t consumed, OsDynStats &stats, Cycles now = 0)
    {
        while (next_ < stream_->events().size() &&
               stream_->events()[next_].atAccess <= consumed) {
            apply(stream_->events()[next_], stats, now);
            ++next_;
        }
    }

    /** Accesses until the next pending event fires (max() when none).
     *  Call after applyDue(consumed): the result is then >= 1. */
    std::uint64_t
    gapUntilNext(std::uint64_t consumed) const
    {
        if (next_ >= stream_->events().size())
            return std::numeric_limits<std::uint64_t>::max();
        return stream_->events()[next_].atAccess - consumed;
    }

  private:
    void apply(const OsEvent &event, OsDynStats &stats, Cycles now);

    /** Resolve the VMA an event targets and its base VA. */
    const Vma *resolveVma(const OsEvent &event) const;

    const OsEventStream *stream_;
    System &system_;
    ShootdownTarget &target_;
    std::size_t next_ = 0;
    /** Dynamic-VMA handle -> live VMA id. */
    std::unordered_map<std::uint64_t, std::uint64_t> vmaOfHandle_;
};

} // namespace asap

#endif // ASAP_DYN_DYNAMICS_HH
