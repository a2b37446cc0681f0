/**
 * @file
 * Anonymous zero-filled mappings: the backing of every per-frame
 * metadata array (buddy links and bits, reverse map, pin flags) and of
 * every SetAssoc array.
 *
 * A per-frame array is sized to the whole machine (6M frames for a
 * 24 GiB one) but a build touches a fraction of it. Giving each array
 * its own anonymous mmap makes the kernel's zero page the initial
 * state: the owner chooses an encoding whose all-zero value means
 * "nothing here", construction writes no byte, and untouched frames
 * cost neither time nor RSS. calloc does not give that guarantee:
 * glibc reuses freed heap chunks and memsets them, which measured +8%
 * peak RSS on a co-located virtualized run.
 *
 * AddressSanitizer puts no redzones around these mappings, so
 * ZeroPageArray checks its index whenever NDEBUG is off.
 */

#ifndef ASAP_COMMON_ZERO_PAGES_HH
#define ASAP_COMMON_ZERO_PAGES_HH

#include <cstddef>
#include <type_traits>
#include <utility>

#include "common/logging.hh"

namespace asap
{

/** Map @p bytes of zero pages (nullptr for 0). With @p populate the
 *  pages are faulted in writable up front. Throws std::bad_alloc. */
void *mapZeroPages(std::size_t bytes, bool populate = false);

/** Unmap a mapZeroPages() result of the same size. */
void unmapZeroPages(void *base, std::size_t bytes);

/** A fixed-size array of @p T whose initial state is all-zero; with
 *  @p populate its pages are faulted in at construction. */
template <typename T>
class ZeroPageArray
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "zero pages hold plain data only");

  public:
    ZeroPageArray() = default;

    explicit ZeroPageArray(std::size_t size, bool populate = false)
        : data_(static_cast<T *>(mapZeroPages(size * sizeof(T), populate))),
          size_(size)
    {}

    ~ZeroPageArray() { unmapZeroPages(data_, size_ * sizeof(T)); }

    ZeroPageArray(ZeroPageArray &&other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          size_(std::exchange(other.size_, 0))
    {}

    ZeroPageArray &
    operator=(ZeroPageArray &&other) noexcept
    {
        std::swap(data_, other.data_);
        std::swap(size_, other.size_);
        return *this;
    }

    T &
    operator[](std::size_t index)
    {
#ifndef NDEBUG
        panic_if(index >= size_, "index %zu out of %zu", index, size_);
#endif
        return data_[index];
    }

    const T &
    operator[](std::size_t index) const
    {
        return const_cast<ZeroPageArray &>(*this)[index];
    }

    std::size_t size() const { return size_; }

  private:
    T *data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace asap

#endif // ASAP_COMMON_ZERO_PAGES_HH
