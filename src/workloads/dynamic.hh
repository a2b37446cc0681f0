/**
 * @file
 * Phase-scripted dynamic (churn) workloads: a Workload decorator that
 * pairs any generator's address stream with a deterministic OS-event
 * stream (src/dyn/os_events.hh), modeling the long-uptime behaviours of
 * production servers the static setup-then-run model cannot express
 * (paper Section 3.7):
 *
 *  - "server"  : a steady-state server. Periodic bursts free a slice of
 *    the dataset with madvise(DONTNEED) and refault part of it (slab /
 *    arena allocator churn), the heap grows now and then (in-place
 *    ASAP-region extension, relocation, growth holes), and occasionally
 *    a churn-holding co-tenant departs.
 *  - "tenants" : the server churn plus tenant VMAs arriving (mmap +
 *    prefault) and departing (munmap) on a rotating schedule — VMA
 *    creation, teardown, ASAP region lifecycle and targeted TLB/PWC
 *    shootdown under continuous load.
 *
 * The event stream is generated at setup() time from the *actual* VMA
 * layout and a seed derived from the spec, so it is bit-identical
 * between a live run and a trace replay of the same workload.
 */

#ifndef ASAP_WORKLOADS_DYNAMIC_HH
#define ASAP_WORKLOADS_DYNAMIC_HH

#include <memory>

#include "dyn/os_events.hh"
#include "workloads/synthetic.hh"
#include "workloads/workload.hh"

namespace asap
{

/**
 * Build the event stream for @p spec (whose dynProfile must be set)
 * against the VMA layout @p system holds after the workload's setup.
 */
OsEventStream buildDynamicEvents(const WorkloadSpec &spec,
                                 const System &system);

/** Decorates a generator workload with a dynProfile event stream. */
class DynamicWorkload : public Workload
{
  public:
    DynamicWorkload(std::unique_ptr<Workload> inner, WorkloadSpec spec)
        : inner_(std::move(inner)), spec_(std::move(spec))
    {}

    const std::string &name() const override { return inner_->name(); }

    void
    setup(System &system) override
    {
        inner_->setup(system);
        events_ = buildDynamicEvents(spec_, system);
    }

    void reset(Rng &rng) override { inner_->reset(rng); }
    VirtAddr next(Rng &rng) override { return inner_->next(rng); }

    void
    nextBatch(Rng &rng, VirtAddr *out, std::size_t count) override
    {
        inner_->nextBatch(rng, out, count);
    }

    const OsEventStream *
    events() const override
    {
        return events_.empty() ? nullptr : &events_;
    }

    unsigned
    computeCyclesPerAccess() const override
    {
        return inner_->computeCyclesPerAccess();
    }

    double paperDatasetGb() const override
    { return inner_->paperDatasetGb(); }

  private:
    std::unique_ptr<Workload> inner_;
    WorkloadSpec spec_;
    OsEventStream events_;
};

/** @p spec with a dynamics profile attached (sweep convenience). */
WorkloadSpec withDynamics(WorkloadSpec spec, const std::string &profile,
                          double intensity = 1.0,
                          std::uint64_t periodAccesses = 0);

} // namespace asap

#endif // ASAP_WORKLOADS_DYNAMIC_HH
