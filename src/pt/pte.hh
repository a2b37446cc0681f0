/**
 * @file
 * x86-64-style page table entry encoding.
 *
 * Only the fields the simulation needs are modeled: present, the
 * large-page (PS) bit that terminates a walk above PL1 (paper Section
 * 3.5), and the target frame number.
 * The bit layout mirrors x86 so tests can assert against architectural
 * positions.
 */

#ifndef ASAP_PT_PTE_HH
#define ASAP_PT_PTE_HH

#include <cstdint>

#include "common/types.hh"

namespace asap
{

/** Raw 8-byte page table entry with x86-like field positions. */
class Pte
{
  public:
    static constexpr std::uint64_t presentBit = 1ull << 0;
    static constexpr std::uint64_t writableBit = 1ull << 1;
    static constexpr std::uint64_t userBit = 1ull << 2;
    static constexpr std::uint64_t hugeBit = 1ull << 7;   ///< PS bit
    static constexpr std::uint64_t pfnMask = 0x000ffffffffff000ull;

    constexpr Pte() : raw_(0) {}
    constexpr explicit Pte(std::uint64_t raw) : raw_(raw) {}

    /** Build a present entry pointing at @p pfn. */
    static constexpr Pte
    make(Pfn pfn, bool huge = false, bool writable = true)
    {
        std::uint64_t raw = presentBit | userBit;
        if (writable)
            raw |= writableBit;
        if (huge)
            raw |= hugeBit;
        raw |= (pfn << pageShift) & pfnMask;
        return Pte(raw);
    }

    constexpr bool present() const { return raw_ & presentBit; }
    constexpr bool writable() const { return raw_ & writableBit; }
    constexpr bool user() const { return raw_ & userBit; }
    constexpr bool huge() const { return raw_ & hugeBit; }
    constexpr Pfn pfn() const { return (raw_ & pfnMask) >> pageShift; }
    constexpr std::uint64_t raw() const { return raw_; }

    void clear() { raw_ = 0; }

    /**
     * True iff this entry terminates the walk at @p level: PL1 entries are
     * always leaves; higher levels are leaves only with the PS bit (2MB at
     * PL2, 1GB at PL3).
     */
    constexpr bool
    isLeaf(unsigned level) const
    {
        return level == 1 || huge();
    }

  private:
    std::uint64_t raw_;
};

static_assert(sizeof(Pte) == pteSize, "Pte must be 8 bytes");

} // namespace asap

#endif // ASAP_PT_PTE_HH
