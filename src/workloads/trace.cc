#include "workloads/trace.hh"

#include "common/logging.hh"
#include "common/status.hh"
#include "sim/environment.hh"
#include "sim/system.hh"
#include "trace/setup_capture.hh"

namespace asap
{

void
TraceReplayWorkload::setup(System &system)
{
    replaySetupOps(system, trace_->opsBegin(), trace_->opsEnd(),
                   trace_->path().c_str());
}

void
recordTrace(const WorkloadSpec &spec, const std::string &path,
            std::uint64_t seed, std::uint64_t accesses,
            const RecordOptions &options)
{
    spec_error_if(accesses == 0, "recordTrace: zero accesses");
    spec_error_if(!spec.tracePath.empty(),
             "recordTrace: %s is already trace-backed",
             spec.name.c_str());
    spec_error_if(options.version != trc2Version,
             "recordTrace: unknown container version %u",
             options.version);

    // Setup runs against a scratch *native* System: the workload's
    // mmap/touch sequence (and its generated stream) do not depend on
    // EnvironmentOptions, so the cheapest environment serves.
    System system(makeSystemConfig(spec, EnvironmentOptions{}));
    const std::unique_ptr<Workload> workload = makeWorkload(spec);

    SetupCapture capture;
    system.setRecorder(&capture);
    workload->setup(system);
    system.setRecorder(nullptr);

    // A dynamic workload's OS events ride in the event-op chunk. They
    // are not *applied* while recording — the address stream never
    // observes machine state, so the recorded stream equals the one a
    // dynamic run draws — but a replay fires them at the same offsets,
    // reproducing the dynamic run exactly.
    const OsEventStream *events = workload->events();
    const std::string eventOps =
        events && !events->empty() ? events->encode() : std::string();

    TraceHeader meta;
    meta.name = spec.name;
    meta.cyclesPerAccess = spec.cyclesPerAccess;
    meta.paperGb = spec.paperGb;
    meta.residentPages = spec.residentPages;
    meta.machineMemBytes = spec.machineMemBytes;
    meta.guestMemBytes = spec.guestMemBytes;
    meta.churnOps = spec.churnOps;
    meta.guestChurnOps = spec.guestChurnOps;
    meta.churnMaxOrder = spec.churnMaxOrder;
    meta.recordSeed = seed;
    Trc2Writer writer(path, meta, capture.take(), options.v2, eventOps);

    // Draw the stream exactly as Simulator::run does: one reset, then
    // sequential batched generation from the seeded Rng.
    Rng rng(seed);
    workload->reset(rng);
    VirtAddr batch[1024];
    std::uint64_t left = accesses;
    while (left > 0) {
        const std::size_t n =
            left < 1024 ? static_cast<std::size_t>(left) : 1024;
        workload->nextBatch(rng, batch, n);
        for (std::size_t i = 0; i < n; ++i)
            writer.add(batch[i]);
        left -= n;
    }
    writer.finish();
}

WorkloadSpec
traceSpec(const std::string &path)
{
    const TraceFile trace(path);
    const TraceHeader &header = trace.header();
    WorkloadSpec spec;
    spec.name = header.name;
    spec.paperGb = header.paperGb;
    spec.residentPages = header.residentPages;
    spec.cyclesPerAccess = header.cyclesPerAccess;
    spec.machineMemBytes = header.machineMemBytes;
    spec.guestMemBytes = header.guestMemBytes;
    spec.churnOps = header.churnOps;
    spec.guestChurnOps = header.guestChurnOps;
    spec.churnMaxOrder = header.churnMaxOrder;
    spec.tracePath = path;
    return spec;
}

} // namespace asap
