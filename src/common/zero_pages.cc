#include "common/zero_pages.hh"

#include <new>

#include <sys/mman.h>

namespace asap
{

void *
mapZeroPages(std::size_t bytes, bool populate)
{
    if (bytes == 0)
        return nullptr;
    const int flags = MAP_PRIVATE | MAP_ANONYMOUS |
                      (populate ? MAP_POPULATE : MAP_NORESERVE);
    void *base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, flags, -1,
                        0);
    if (base == MAP_FAILED)
        throw std::bad_alloc();
    return base;
}

void
unmapZeroPages(void *base, std::size_t bytes)
{
    if (base)
        ::munmap(base, bytes);
}

} // namespace asap
