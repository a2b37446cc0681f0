#include "dyn/dynamics.hh"

#include <algorithm>

#include "common/logging.hh"

namespace asap
{

const Vma *
OsDynamics::resolveVma(const OsEvent &event) const
{
    if (event.handle != noOsHandle) {
        const auto it = vmaOfHandle_.find(event.handle);
        panic_if(it == vmaOfHandle_.end(),
                 "OS event against unmapped handle %lu",
                 static_cast<unsigned long>(event.handle));
        const Vma *vma = system_.appSpace().vmas().byId(it->second);
        panic_if(!vma, "OS-event handle %lu maps to a dead VMA",
                 static_cast<unsigned long>(event.handle));
        return vma;
    }
    const Vma *vma = system_.appSpace().vmas().find(event.addr);
    panic_if(!vma, "OS event at %#lx outside any VMA", event.addr);
    return vma;
}

void
OsDynamics::apply(const OsEvent &event, OsDynStats &stats, Cycles now)
{
    ++stats.events;
    obs::TraceSink *sink = target_.traceSink();
    if (sink) {
        sink->osEvent(now, static_cast<unsigned>(event.kind),
                      event.addr, event.pages);
    }
    switch (event.kind) {
      case OsEventKind::Mmap: {
        const std::uint64_t id = system_.mmap(
            event.bytes,
            strprintf("dyn-vma%lu",
                      static_cast<unsigned long>(event.handle)),
            event.prefetchable);
        panic_if(!vmaOfHandle_.emplace(event.handle, id).second,
                 "OS-event handle %lu mapped twice",
                 static_cast<unsigned long>(event.handle));
        ++stats.mmaps;
        target_.refreshDescriptors();
        break;
      }
      case OsEventKind::Munmap: {
        const Vma *vma = resolveVma(event);
        const auto counts = system_.munmap(vma->id);
        vmaOfHandle_.erase(event.handle);
        ++stats.munmaps;
        stats.dataPagesFreed += counts.dataPagesFreed;
        stats.ptNodesFreed += counts.ptNodesFreed;
        const auto dropped =
            target_.invalidateRange(counts.start, counts.end);
        stats.tlbInvalidated += dropped.tlb;
        stats.pwcInvalidated += dropped.pwc;
        if (sink)
            sink->shootdown(now, dropped.tlb, dropped.pwc);
        target_.refreshDescriptors();
        break;
      }
      case OsEventKind::MinorFault: {
        const Vma *vma = resolveVma(event);
        const VirtAddr base = event.handle != noOsHandle
                                  ? vma->start + event.addr
                                  : event.addr;
        // Clamped to the VMA end; one minor fault per page.
        const std::uint64_t pages =
            base < vma->end
                ? std::min(event.pages, ceilDiv(vma->end - base, pageSize))
                : 0;
        system_.touchRange(base, pages);
        stats.minorFaults += pages;
        break;
      }
      case OsEventKind::MadviseFree: {
        const Vma *vma = resolveVma(event);
        const VirtAddr base = event.handle != noOsHandle
                                  ? vma->start + event.addr
                                  : event.addr;
        // Clamp to the VMA so profile generators can speak in offsets
        // without knowing exact sizes.
        const std::uint64_t pages =
            std::min<std::uint64_t>(event.pages,
                                    base < vma->end
                                        ? (vma->end - base) >> pageShift
                                        : 0);
        if (pages == 0)
            break;
        const auto counts = system_.madviseFree(base, pages);
        ++stats.madviseFrees;
        stats.dataPagesFreed += counts.dataPagesFreed;
        stats.ptNodesFreed += counts.ptNodesFreed;
        const auto dropped =
            target_.invalidateRange(counts.start, counts.end);
        stats.tlbInvalidated += dropped.tlb;
        stats.pwcInvalidated += dropped.pwc;
        if (sink)
            sink->shootdown(now, dropped.tlb, dropped.pwc);
        break;
      }
      case OsEventKind::Extend: {
        const Vma *vma = resolveVma(event);
        system_.extendVma(vma->id, event.bytes);
        ++stats.extends;
        target_.refreshDescriptors();
        break;
      }
      case OsEventKind::ReleaseChurn: {
        stats.churnFramesReleased += system_.releaseMachineChurn(
            static_cast<double>(event.pages) / 1000.0);
        ++stats.churnReleases;
        break;
      }
    }
}

} // namespace asap
