#include "workloads/synthetic.hh"

#include <cmath>
#include <memory>

#include "common/logging.hh"
#include "sim/system.hh"
#include "workloads/dynamic.hh"
#include "workloads/trace.hh"

namespace asap
{

std::uint64_t
SyntheticWorkload::probThreshold(double p)
{
    if (p <= 0.0)
        return 0;
    if (p >= 1.0)
        return std::uint64_t{1} << 53;
    return static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
}

SyntheticWorkload::SyntheticWorkload(WorkloadSpec spec)
    : spec_(std::move(spec))
{
    fatal_if(spec_.residentPages == 0, "%s: empty resident set",
             spec_.name.c_str());
    fatal_if(spec_.dataVmas == 0, "%s: need at least one data VMA",
             spec_.name.c_str());
    const double mixture = spec_.seqFraction + spec_.nearFraction +
                           spec_.windowFraction;
    fatal_if(mixture > 1.0, "%s: access mixture exceeds 1.0",
             spec_.name.c_str());

    // The thresholds mirror the exact comparisons generate() used to
    // perform in doubles, including the evaluation order of the
    // partial sums (see probThreshold).
    burstThreshold_ = probThreshold(spec_.burstContinueProb);
    seqThreshold_ = probThreshold(spec_.seqFraction);
    const double seqNear = spec_.seqFraction + spec_.nearFraction;
    seqNearThreshold_ = probThreshold(seqNear);
    windowThreshold_ = probThreshold(seqNear + spec_.windowFraction);
}

void
SyntheticWorkload::setup(System &system)
{
    // Small VMAs: dynamically linked libraries, stack, etc. They are
    // frequently reused and rarely miss the TLB (Section 3.2), so they
    // exist for layout realism but emit no accesses.
    Rng layoutRng(mix64(0x51717 ^ spec_.residentPages));
    for (unsigned i = 0; i < spec_.smallVmas; ++i) {
        const std::uint64_t bytes =
            pageSize * layoutRng.between(4, 128);
        const std::uint64_t id = system.mmap(
            bytes, strprintf("%s-small%u", spec_.name.c_str(), i),
            /*prefetchable=*/false);
        // Touch a couple of pages so they contribute PT nodes.
        const Vma *vma = system.appSpace().vmas().byId(id);
        system.touch(vma->start);
        system.touch(vma->start + bytes / 2);
    }

    // Dataset VMAs: split the resident set evenly; prefault in VA order
    // (the natural order a loading phase would fault the heap in).
    const std::uint64_t pagesPerVma =
        ceilDiv(spec_.residentPages, spec_.dataVmas);
    std::uint64_t remaining = spec_.residentPages;
    for (unsigned i = 0; i < spec_.dataVmas; ++i) {
        const std::uint64_t pages = std::min(pagesPerVma, remaining);
        if (pages == 0)
            break;
        remaining -= pages;
        DataRegion region;
        region.pages = pages;
        region.vmaId = system.mmap(
            pages * pageSize,
            strprintf("%s-heap%u", spec_.name.c_str(), i),
            /*prefetchable=*/true);
        region.start = system.appSpace().vmas().byId(region.vmaId)->start;
        regions_.push_back(region);
        system.touchRange(region.start, pages);
    }

    totalPages_ = spec_.residentPages;
    if (spec_.zipfTheta > 0.0)
        zipf_.emplace(totalPages_, spec_.zipfTheta);
}

VirtAddr
SyntheticWorkload::pageVa(std::uint64_t pageIndex) const
{
    for (const DataRegion &region : regions_) {
        if (pageIndex < region.pages)
            return region.start + pageIndex * pageSize;
        pageIndex -= region.pages;
    }
    panic("page index out of range in %s", spec_.name.c_str());
}

void
SyntheticWorkload::reset(Rng &rng)
{
    panic_if(regions_.empty(), "%s: next() before setup()",
             spec_.name.c_str());
    seqByte_ = rng.below(totalPages_) * pageSize;
    lastPage_ = rng.below(totalPages_);
}

std::uint64_t
SyntheticWorkload::lineOffset(std::uint64_t page, Rng &rng) const
{
    const std::uint64_t linesInPage = pageSize / lineSize;
    if (spec_.linesPerPage == 0 || spec_.linesPerPage >= linesInPage)
        return rng.below(linesInPage) * lineSize;
    // Per-page deterministic line subset: field/value locality makes a
    // page's accesses reuse the same few lines, so warm pages hit in
    // the data caches even though their translations miss the TLB.
    const std::uint64_t base = mix64(page * 0x9e3779b97f4a7c15ull);
    const std::uint64_t line =
        (base + rng.below(spec_.linesPerPage)) & (linesInPage - 1);
    return line * lineSize;
}

VirtAddr
SyntheticWorkload::generate(Rng &rng)
{
    // Intra-page burst: successive lines of the same page (one object).
    if (burstThreshold_ != 0 && (rng.next() >> 11) < burstThreshold_) {
        ++burstLine_;
        const std::uint64_t linesInPage = pageSize / lineSize;
        const std::uint64_t window =
            (spec_.linesPerPage == 0 || spec_.linesPerPage >= linesInPage)
                ? linesInPage
                : spec_.linesPerPage;
        const std::uint64_t line =
            (mix64(lastPage_ * 0x9e3779b97f4a7c15ull) +
             burstLine_ % window) &
            (linesInPage - 1);
        return pageVa(lastPage_) + line * lineSize;
    }
    burstLine_ = 0;

    const std::uint64_t r = rng.next() >> 11;
    std::uint64_t page;

    if (r < seqThreshold_) {
        // Line-granular scan over the footprint.
        seqByte_ += lineSize;
        if (seqByte_ >= totalPages_ * pageSize)
            seqByte_ = 0;
        page = seqByte_ >> pageShift;
        lastPage_ = page;
        return pageVa(page) + (seqByte_ & pageOffsetMask);
    }

    if (r < seqNearThreshold_) {
        // Spatially-near access: within +/-3 pages of the last one.
        // These are the misses Clustered TLB can coalesce.
        const std::uint64_t delta = 1 + rng.below(3);
        if (rng.chance(0.5) && lastPage_ >= delta)
            page = lastPage_ - delta;
        else
            page = lastPage_ + delta;
        if (page >= totalPages_)
            page = totalPages_ - 1;
    } else if (zipf_) {
        page = zipf_->next(rng);
    } else if (spec_.windowFraction > 0.0 && spec_.windowPages > 0 &&
               r < windowThreshold_) {
        // Warm window: quadratic skew toward the window head, so a
        // TLB-reach-sized subset stays hot while the tail keeps missing.
        const std::uint64_t window =
            std::min(spec_.windowPages, totalPages_);
        const double u = rng.real();
        page = static_cast<std::uint64_t>(
            static_cast<double>(window) * u * u);
        if (page >= window)
            page = window - 1;
    } else {
        // Cold: uniform over the whole footprint.
        page = rng.below(totalPages_);
    }

    lastPage_ = page;
    return pageVa(page) + lineOffset(page, rng);
}

std::unique_ptr<Workload>
makeWorkload(const WorkloadSpec &spec)
{
    // A trace-backed spec carries its own event stream (event-op chunk)
    // — the replay workload surfaces it, so no decoration here.
    if (!spec.tracePath.empty())
        return std::make_unique<TraceReplayWorkload>(spec.tracePath);
    auto workload = std::make_unique<SyntheticWorkload>(spec);
    if (!spec.dynProfile.empty())
        return std::make_unique<DynamicWorkload>(std::move(workload),
                                                 spec);
    return workload;
}

} // namespace asap
