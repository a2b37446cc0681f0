/**
 * @file
 * The multi-core ShootdownTarget: routes one tenant's OS-event side
 * effects (munmap/madvise shootdowns, descriptor refreshes) into the
 * MultiCoreSimulator's cross-core fan-out and IPI cost model.
 *
 * OsDynamics stays completely ignorant of cores: it calls the same
 * three-method surface a bare Machine implements for the serial
 * Simulator. The proxy is what makes a tenant's shootdown reach every
 * core in its presence mask — and what charges the initiating tenant
 * for the IPIs.
 */

#ifndef ASAP_MC_SHOOTDOWN_HH
#define ASAP_MC_SHOOTDOWN_HH

#include "sim/machine.hh"

namespace asap::mc
{

class MultiCoreSimulator;

class TenantShootdownProxy final : public ShootdownTarget
{
  public:
    TenantShootdownProxy(MultiCoreSimulator &sim, unsigned tenant)
        : sim_(sim), tenant_(tenant)
    {}

    obs::TraceSink *traceSink() const override;

    Machine::InvalidateCounts
    invalidateRange(VirtAddr start, VirtAddr end) override;

    void refreshDescriptors() override;

  private:
    MultiCoreSimulator &sim_;
    unsigned tenant_;
};

} // namespace asap::mc

#endif // ASAP_MC_SHOOTDOWN_HH
