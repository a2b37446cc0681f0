/**
 * @file
 * Workload interface: a synthetic application that owns VMAs inside a
 * System and emits a virtual-address stream.
 *
 * The paper drives its simulator with DynamoRIO traces of real
 * applications; this reproduction substitutes generators that match the
 * *structural* properties the memory-system model is sensitive to:
 * footprint, VMA layout, sequential/spatial/temporal locality mix, and
 * key-popularity skew. The model sees only the address stream, so an
 * access's cost depends on which pages and lines it touches and when,
 * not on the code that issued it.
 */

#ifndef ASAP_WORKLOADS_WORKLOAD_HH
#define ASAP_WORKLOADS_WORKLOAD_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/rng.hh"
#include "common/types.hh"

namespace asap
{

class System;
class OsEventStream;

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Human-readable name ("mcf", "mc400", ...). */
    virtual const std::string &name() const = 0;

    /** Create VMAs and prefault the resident set. Called once. */
    virtual void setup(System &system) = 0;

    /** Reset per-run generator state (cursors, last-touch). */
    virtual void reset(Rng &rng) = 0;

    /** Next memory-access virtual address. */
    virtual VirtAddr next(Rng &rng) = 0;

    /**
     * Generate the next @p count addresses into @p out — the same
     * stream next() would produce, but with one virtual dispatch per
     * batch instead of per access (the simulation inner loop consumes
     * addresses this way). Generators should override this with a loop
     * over their non-virtual generation core.
     */
    virtual void
    nextBatch(Rng &rng, VirtAddr *out, std::size_t count)
    {
        for (std::size_t i = 0; i < count; ++i)
            out[i] = next(rng);
    }

    /**
     * The workload's OS-event stream (src/dyn/os_events.hh), valid
     * after setup(); nullptr (the default) for static workloads. The
     * Simulator fires these events at their access offsets — mid-run
     * mmap/munmap/fault/madvise churn riding along the address stream.
     */
    virtual const OsEventStream *events() const { return nullptr; }

    /** Core (non-memory) cycles between memory accesses — the
     *  execution-time model's compute component. */
    virtual unsigned computeCyclesPerAccess() const = 0;

    /** The paper-scale dataset this generator stands in for (GB). */
    virtual double paperDatasetGb() const = 0;
};

} // namespace asap

#endif // ASAP_WORKLOADS_WORKLOAD_HH
