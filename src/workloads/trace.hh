/**
 * @file
 * Trace-driven workload backend: record any generator workload to a
 * compact binary trace, then replay it through the existing Workload
 * interface.
 *
 * The paper drives its simulator with DynamoRIO traces of real
 * applications; the synthetic generators substitute for those traces
 * structurally. This module closes the loop: a trace file captures both
 * the *setup* of an application (its ordered mmap/touch sequence, which
 * fully determines VMA layout and demand-fault order, and hence the
 * buddy/ASAP physical placement on any System it is replayed into) and
 * its *address stream* (the exact sequence Workload::nextBatch would
 * generate for a given seed). Replaying a trace is therefore
 * bit-identical to running its source generator live — RunStats and all
 * — while decoupling the simulator from how the stream was produced.
 *
 * Recordings use the ASAPTRC2 container (src/trace/, layout in
 * src/trace/trace_file.hh): chunked zigzag-varint delta blocks,
 * deflated where that shrinks them, behind an end-of-file index.
 * Sequential prefaults collapse to one touch run and typical address
 * deltas fit in 2-4 bytes, so traces stay a few bytes per access. The
 * reader mmaps the file and decodes on the fly — replay is cheaper
 * than generation. It also reads legacy ASAPTRC1 files. External
 * traces (DynamoRIO memtrace, ChampSim, text) convert into ASAPTRC2
 * via src/trace/importer.hh and tools/trace_convert.
 */

#ifndef ASAP_WORKLOADS_TRACE_HH
#define ASAP_WORKLOADS_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "dyn/os_events.hh"
#include "trace/trace_file.hh"
#include "trace/writer.hh"
#include "workloads/synthetic.hh"
#include "workloads/workload.hh"

namespace asap
{

class System;

/**
 * Replays a recorded trace through the Workload interface.
 *
 * setup() re-executes the recorded mmap/touch sequence; next()/
 * nextBatch() decode the recorded address stream, wrapping around when
 * a run needs more accesses than were recorded. The Rng arguments are
 * deliberately unused: a trace pins the address stream, so RunConfig
 * seeds no longer perturb it (they still drive the co-runner).
 */
class TraceReplayWorkload : public Workload
{
  public:
    explicit TraceReplayWorkload(const std::string &path)
        : trace_(std::make_unique<TraceFile>(path)), cursor_(*trace_)
    {
        if (trace_->hasEventOps()) {
            events_ = OsEventStream::decode(trace_->eventOpsBegin(),
                                            trace_->eventOpsEnd(),
                                            trace_->path().c_str());
        }
    }

    const std::string &name() const override
    { return trace_->header().name; }

    void setup(System &system) override;

    void
    reset(Rng &rng) override
    {
        (void)rng;
        cursor_.rewind();
    }

    VirtAddr
    next(Rng &rng) override
    {
        (void)rng;
        return cursor_.next();
    }

    void
    nextBatch(Rng &rng, VirtAddr *out, std::size_t count) override
    {
        (void)rng;
        for (std::size_t i = 0; i < count; ++i)
            out[i] = cursor_.next();
    }

    /** The recorded OS-event stream, if the trace carries one: dynamic
     *  runs replay their mid-run churn bit-identically. */
    const OsEventStream *
    events() const override
    {
        return events_.empty() ? nullptr : &events_;
    }

    unsigned computeCyclesPerAccess() const override
    { return trace_->header().cyclesPerAccess; }

    double paperDatasetGb() const override
    { return trace_->header().paperGb; }

    const TraceFile &trace() const { return *trace_; }

    /** representedAccesses / accessCount — multiply count-type RunStats
     *  by this to estimate full-capture numbers when replaying a
     *  sampled (1-in-N chunk) trace; 1.0 for full traces. */
    double
    sampleScale() const
    {
        const TraceHeader &header = trace_->header();
        return static_cast<double>(header.representedAccesses) /
               static_cast<double>(header.accessCount);
    }

  private:
    std::unique_ptr<TraceFile> trace_;
    TraceCursor cursor_;
    OsEventStream events_;
};

/** Options for recordTrace. */
struct RecordOptions
{
    /** Must be trc2Version, the only container written; any other value
     *  is a spec_error. Kept for callers that still set it. */
    unsigned version = trc2Version;
    Trc2Options v2;   ///< chunking, compression and sampling
};

/**
 * Record @p spec's workload into @p path: the setup sequence is
 * captured from a scratch native System, then @p accesses addresses are
 * drawn exactly the way Simulator::run draws them (reset, then
 * sequential generation from an Rng seeded with @p seed).
 *
 * The recorded stream — and the physical placement its replayed setup
 * produces — is independent of EnvironmentOptions, so one trace serves
 * every scenario (native/virt, baseline/ASAP, ...) of its workload.
 */
void recordTrace(const WorkloadSpec &spec, const std::string &path,
                 std::uint64_t seed, std::uint64_t accesses,
                 const RecordOptions &options = {});

/**
 * A WorkloadSpec describing a recorded trace: name and System sizing
 * come from the trace header, tracePath points at @p path, and
 * makeWorkload() yields a TraceReplayWorkload. This is what
 * specByName("trace:<path>") returns, making traces drop-in workloads
 * for every sweep and figure benchmark.
 */
WorkloadSpec traceSpec(const std::string &path);

} // namespace asap

#endif // ASAP_WORKLOADS_TRACE_HH
