#include "workloads/suite.hh"

#include "common/status.hh"

#include <cstdlib>

#include "workloads/dynamic.hh"
#include "workloads/trace.hh"

namespace asap
{

// Parameter rationale. The generators stand in for the paper's traces
// only structurally (the model sees addresses alone; see
// workloads/workload.hh), so each knob sets one property it is
// sensitive to:
//  - residentPages sets the TLB/PT pressure: pages * 8B is the PL1
//    footprint competing for the caches.
//  - near/seq fractions set spatial locality: high for mcf/canneal
//    (small graphs with clustered nodes — these are the workloads where
//    Clustered TLB shines, Table 7), scan-heavy for graph analytics,
//    low for hashed key-value stores.
//  - zipfTheta models YCSB-style key popularity for mc/redis.
//  - churnOps fragments machine memory for the long-running big-data
//    servers, destroying the physical contiguity Clustered TLB needs.

WorkloadSpec
mcfSpec()
{
    WorkloadSpec spec;
    spec.name = "mcf";
    spec.paperGb = 1.7;
    spec.residentPages = 300'000;     // ~1.2GB
    spec.dataVmas = 1;
    spec.smallVmas = 15;              // Table 2: 16 total VMAs
    spec.cyclesPerAccess = 3;
    spec.seqFraction = 0.05;
    spec.nearFraction = 0.08;         // arc arrays: strong clustering
    spec.windowFraction = 0.85;       // residual cold mass: 2%
    spec.windowPages = 2'000;
    spec.linesPerPage = 2;
    spec.burstContinueProb = 0.65;
    spec.machineMemBytes = 8_GiB;
    spec.guestMemBytes = 4_GiB;
    spec.churnOps = 40'000;           // short run: light fragmentation
    spec.churnMaxOrder = 2;
    return spec;
}

WorkloadSpec
cannealSpec()
{
    WorkloadSpec spec;
    spec.name = "canneal";
    spec.paperGb = 0.9;
    spec.residentPages = 220'000;     // ~0.9GB
    spec.dataVmas = 4;                // Table 2: 4 VMAs for 99%
    spec.smallVmas = 14;              // Table 2: 18 total
    spec.cyclesPerAccess = 3;
    spec.nearFraction = 0.08;         // netlist elements swap locally
    spec.windowFraction = 0.82;
    spec.windowPages = 1'800;
    spec.linesPerPage = 2;
    spec.burstContinueProb = 0.60;
    spec.machineMemBytes = 8_GiB;
    spec.guestMemBytes = 4_GiB;
    spec.churnOps = 60'000;
    spec.churnMaxOrder = 2;
    return spec;
}

WorkloadSpec
bfsSpec()
{
    WorkloadSpec spec;
    spec.name = "bfs";
    spec.paperGb = 60.0;
    spec.residentPages = 2'000'000;   // ~8GB scaled graph
    spec.dataVmas = 1;
    spec.smallVmas = 13;              // Table 2: 14 total
    spec.cyclesPerAccess = 2;         // little compute per edge
    spec.seqFraction = 0.15;          // CSR offset/frontier scans
    spec.nearFraction = 0.05;
    spec.windowFraction = 0.70;       // active frontier neighbourhood
    spec.windowPages = 10'000;
    spec.linesPerPage = 2;
    spec.burstContinueProb = 0.45;
    spec.machineMemBytes = 24_GiB;
    spec.guestMemBytes = 12_GiB;
    spec.churnOps = 400'000;
    spec.churnMaxOrder = 1;       // long-uptime server: heavy scatter
    spec.guestChurnOps = 400'000;
    return spec;
}

WorkloadSpec
pagerankSpec()
{
    WorkloadSpec spec;
    spec.name = "pagerank";
    spec.paperGb = 60.0;
    spec.residentPages = 2'000'000;
    spec.dataVmas = 1;
    spec.smallVmas = 17;              // Table 2: 18 total
    spec.cyclesPerAccess = 2;
    spec.seqFraction = 0.25;          // rank vector scans
    spec.nearFraction = 0.03;
    spec.windowFraction = 0.65;
    spec.windowPages = 6'000;
    spec.linesPerPage = 2;
    spec.burstContinueProb = 0.45;
    spec.machineMemBytes = 24_GiB;
    spec.guestMemBytes = 12_GiB;
    spec.churnOps = 400'000;
    spec.churnMaxOrder = 1;       // long-uptime server: heavy scatter
    spec.guestChurnOps = 400'000;
    return spec;
}

WorkloadSpec
mc80Spec()
{
    WorkloadSpec spec;
    spec.name = "mc80";
    spec.paperGb = 80.0;
    spec.residentPages = 300'000;     // hot slabs: PL1 2.4MB, cacheable
    spec.dataVmas = 6;                // Table 2: 6 VMAs for 99%
    spec.smallVmas = 20;              // Table 2: 26 total
    spec.cyclesPerAccess = 6;         // protocol + hashing work
    spec.zipfTheta = 0.99;            // YCSB key popularity
    spec.nearFraction = 0.02;
    spec.linesPerPage = 1;       // small items: one hot line per page
    spec.burstContinueProb = 0.84;
    spec.machineMemBytes = 16_GiB;
    spec.guestMemBytes = 8_GiB;
    spec.churnOps = 350'000;
    spec.churnMaxOrder = 1;
    spec.guestChurnOps = 300'000;
    return spec;
}

WorkloadSpec
mc400Spec()
{
    WorkloadSpec spec;
    spec.name = "mc400";
    spec.paperGb = 400.0;
    spec.residentPages = 1'000'000;  // ~3x mc80 hot footprint
    spec.dataVmas = 13;               // Table 2: 13 VMAs for 99%
    spec.smallVmas = 20;              // Table 2: 33 total
    spec.cyclesPerAccess = 6;
    spec.zipfTheta = 0.99;
    spec.nearFraction = 0.02;
    spec.linesPerPage = 1;       // small items: one hot line per page
    spec.burstContinueProb = 0.84;
    spec.machineMemBytes = 20_GiB;
    spec.guestMemBytes = 10_GiB;
    spec.churnOps = 300'000;
    spec.guestChurnOps = 600'000;
    return spec;
}

WorkloadSpec
redisSpec()
{
    WorkloadSpec spec;
    spec.name = "redis";
    spec.paperGb = 50.0;
    spec.residentPages = 600'000;    // flat popularity: big DRAM tail
    spec.dataVmas = 1;
    spec.smallVmas = 6;               // Table 2: 7 total
    spec.cyclesPerAccess = 5;
    spec.zipfTheta = 0.85;            // flatter popularity than mc
    spec.nearFraction = 0.05;
    spec.linesPerPage = 1;
    spec.burstContinueProb = 0.80;
    spec.machineMemBytes = 16_GiB;
    spec.guestMemBytes = 8_GiB;
    spec.churnOps = 350'000;
    spec.churnMaxOrder = 1;
    spec.guestChurnOps = 500'000;
    return spec;
}

std::vector<WorkloadSpec>
standardSuite()
{
    return {mcfSpec(),  cannealSpec(), bfsSpec(), pagerankSpec(),
            mc80Spec(), mc400Spec(),   redisSpec()};
}

std::optional<WorkloadSpec>
specByName(const std::string &name)
{
    // "trace:<path>": a recorded trace file as a drop-in workload. The
    // spec's name and System sizing come from the trace header, so any
    // sweep or figure benchmark runs from the trace transparently.
    constexpr const char tracePrefix[] = "trace:";
    if (name.rfind(tracePrefix, 0) == 0)
        return traceSpec(name.substr(sizeof(tracePrefix) - 1));
    // "<name>@<profile>": the workload with an OS-dynamics profile
    // attached ("mcf@server", "mc80@tenants") — mid-run churn for any
    // sweep, figure benchmark or trace recording.
    const std::size_t at = name.find('@');
    if (at != std::string::npos) {
        auto base = specByName(name.substr(0, at));
        if (!base)
            return std::nullopt;
        return withDynamics(std::move(*base), name.substr(at + 1));
    }
    for (WorkloadSpec &spec : standardSuite()) {
        if (spec.name == name)
            return spec;
    }
    return std::nullopt;
}

std::vector<WorkloadSpec>
specsByNames(const std::vector<std::string> &names)
{
    std::vector<WorkloadSpec> specs;
    specs.reserve(names.size());
    for (const std::string &name : names) {
        std::optional<WorkloadSpec> spec = specByName(name);
        spec_error_if(!spec, "unknown workload: %s", name.c_str());
        specs.push_back(std::move(*spec));
    }
    return specs;
}

WorkloadSpec
scaledDown(WorkloadSpec spec, unsigned divisor)
{
    // A recorded trace cannot be shrunk: its VMA layout and address
    // stream are pinned, and rescaling the churn knobs would desync the
    // replayed System from the one the trace was captured against.
    if (divisor <= 1 || !spec.tracePath.empty())
        return spec;
    spec.residentPages = std::max<std::uint64_t>(
        spec.residentPages / divisor, 4'096);
    spec.windowPages = std::max<std::uint64_t>(
        spec.windowPages / divisor, 64);
    spec.churnOps /= divisor;
    spec.guestChurnOps /= divisor;
    // Memory sizing can stay: smaller footprints always fit.
    return spec;
}

WorkloadSpec
applyQuickMode(WorkloadSpec spec)
{
    const char *quick = std::getenv("ASAP_QUICK");
    if (quick && quick[0] != '\0' && quick[0] != '0')
        return scaledDown(std::move(spec), quickScaleDivisor);
    return spec;
}

} // namespace asap
