/**
 * @file
 * The one set-associative array underneath every lookup structure in the
 * simulator: caches, TLBs, the clustered TLB and the page walk caches.
 *
 * Before this template existed, each of those structures carried its own
 * copy of the same three loops (tag probe, LRU victim scan, flush); they
 * have been unified here so the hot loops are written — and optimized —
 * once. Each way stores a 64-bit search key, a compact 32-bit recency
 * tick and the client payload *together*: these scans dominate the
 * simulator's wall-clock time and are bound by host memory traffic on
 * the big arrays (the paper-LLC array alone is megabytes), so a probe
 * must fetch one contiguous run of cache lines that the subsequent
 * victim scan and recency update then hit for free. Four measured
 * dead ends are documented here so they are not retried: a global
 * key/tick/payload (SoA) split pays a second dependent random fetch on
 * every victim scan (20-35% slower end-to-end); a per-*set* blocked
 * [keys][ticks][payloads] layout still splits the hit path's key read
 * and tick write across lines (≈25% slower); AVX2 key scans lose
 * to the scalar loop because they cannot early-exit (hit-early and
 * half-empty sets terminate the scalar scan after a way or two); and a
 * software-pipelined lookahead in the access loop, which
 * `__builtin_prefetch`ed the sets access i+16 would scan (a PL2 PWC
 * peek, the leaf PTE line, the data's LLC set, and a run-ahead copy of
 * the co-runner RNG), cost more than it hid. With it off, simbench's
 * 20-s runs on a 4-vCPU host simulated 10.8% faster on native_asap
 * (6 of 6 interleaved pairs), 3.9% on virt_coloc and 6.5% on
 * fig8_sweep, so it was deleted.
 *
 * An invalid way is all-zero: key 0 (real keys are biased by +1 when
 * stored, see keyFor — no address-derived key collides), tick 0,
 * unspecified payload. A freshly zeroed array therefore *is* the
 * flushed state, which keeps construction and flush at zero-page speed
 * instead of writing sentinel patterns over megabytes. The tick counter
 * is renormalized on the (practically unreachable) 32-bit wrap,
 * preserving LRU order for arbitrarily long runs.
 *
 * Every array is its own pre-faulted zero-page mapping (a populated
 * ZeroPageArray), so its page faults are taken while the Machine is
 * built. Mapped lazily, an array takes a read fault and then a write
 * fault per page inside the measured simulation, as it first reaches
 * each set: about 2,580 minor faults in a native_asap-shaped run with
 * the 5 MiB LLC, against 1,280 up front. Heap calloc returns an
 * already-faulted chunk only when glibc happens to recycle one. On a
 * 4-vCPU host, 10 rounds of interleaved 20-s simbench runs (medians)
 * put this one path level with a split that calloc'ed the arrays under
 * 1 MiB: 8.66 against 8.64 Macc/s on native_asap, 1.97 against 1.90 on
 * virt_coloc. Against lazily mapped arrays the same rounds read 8.66
 * against 8.15 Macc/s (8 of 10 rounds) and 1.97 against 2.02 (4 of 10),
 * both inside the lazy runs' quartile spread: populating is kept for
 * the faults it moves out of the simulation, not for a resolved rate
 * gain. The same run-time faults rule out reserving a page table's slab
 * to a range's size (pt/page_table.hh).
 *
 * Replacement policy — the combined scan every structure always used:
 *   1. a way whose key matches (plus an optional payload predicate for
 *      clients whose match is wider than the key) wins — refresh/merge;
 *   2. otherwise the first invalid way in scan order is the victim
 *      (valid ways always form a prefix of the set: fills take the
 *      first hole and invalidateKey compacts, so the scan's early
 *      exit at an invalid way can never shadow a later match);
 *   3. otherwise the least-recently-used way, first-lowest on ties.
 */

#ifndef ASAP_COMMON_SET_ASSOC_HH
#define ASAP_COMMON_SET_ASSOC_HH

#include <cstdint>
#include <cstring>
#include <limits>

#include "common/types.hh"
#include "common/zero_pages.hh"

namespace asap
{

/** Compact recency timestamp (see file comment). */
using Tick = std::uint32_t;

/** Payload type for tag-only clients (plain caches). */
struct NoPayload
{
};

template <typename Payload = NoPayload>
class SetAssoc
{
  public:
    /** A located way: key/tick/payload views into one stored way. */
    struct Ref
    {
        std::uint64_t *key = nullptr;
        Tick *tick = nullptr;
        Payload *payload = nullptr;

        explicit operator bool() const { return key != nullptr; }
        bool valid() const { return *key != 0; }
    };

    /** A probe/insert result: the way and whether it matched. */
    struct Slot
    {
        Ref way;
        bool matched = false;
    };

    SetAssoc() = default;

    /**
     * Bias an address-derived tag into the stored key space. Tags are
     * below 2^61 (addresses are ≤57-bit, tags are address shifts, and
     * client-packed variants use at most 2^60), so +1 never wraps and
     * key 0 uniquely means "invalid way".
     */
    static constexpr std::uint64_t
    keyFor(std::uint64_t tag)
    {
        return tag + 1;
    }

    /** (Re)shape the array; @p sets must be a power of two. */
    void
    init(std::uint64_t sets, unsigned ways)
    {
        sets_ = sets;
        ways_ = ways;
        setMask_ = sets - 1;
        // The all-zero state is the flushed state, so constructing a
        // machine writes no byte; its pages are faulted in here rather
        // than inside the simulation (file comment). (Huge-page-advised
        // mmap backing was tried here and lost: the 2MB first-touch
        // zeroing costs more than the host TLB misses it saves at these
        // array sizes.)
        store_ = ZeroPageArray<Way>(sets * ways, /*populate=*/true);
        tick_ = 0;
    }

    SetAssoc(const SetAssoc &) = delete;
    SetAssoc &operator=(const SetAssoc &) = delete;

    bool empty() const { return store_.size() == 0; }
    std::uint64_t sets() const { return sets_; }
    unsigned ways() const { return ways_; }

    /** Map an arbitrary tag onto its set index. */
    std::uint64_t setOf(std::uint64_t tag) const { return tag & setMask_; }

    /** Probe @p set for @p key; a null Ref when absent. */
    Ref
    find(std::uint64_t set, std::uint64_t key)
    {
        Way *base = setBase(set);
        for (unsigned w = 0; w < ways_; ++w) {
            if (base[w].key == key)
                return refOf(base[w]);
        }
        return {};
    }

    /** Const probe (non-perturbing paths like Cache::probe). */
    Ref
    find(std::uint64_t set, std::uint64_t key) const
    {
        return const_cast<SetAssoc *>(this)->find(set, key);
    }

    /** Probe for @p key where the payload also satisfies @p pred (for
     *  clients whose match predicate is wider than the key). */
    template <typename Pred>
    Ref
    findWhere(std::uint64_t set, std::uint64_t key, Pred pred)
    {
        Way *base = setBase(set);
        for (unsigned w = 0; w < ways_; ++w) {
            if (base[w].key == key && pred(base[w].payload))
                return refOf(base[w]);
        }
        return {};
    }

    /**
     * Valid (non-zero-key) ways across the whole array — the occupancy
     * gauge behind the timeline's valid-entry fractions. Exploits the
     * valid-prefix invariant (file comment): each set's scan stops at
     * its first invalid way, so the cost is O(valid + sets). Read-only
     * introspection — never on the lookup/fill hot paths.
     */
    std::uint64_t
    validCount() const
    {
        std::uint64_t valid = 0;
        for (std::uint64_t set = 0; set < sets_; ++set) {
            const Way *base = setBase(set);
            unsigned w = 0;
            while (w < ways_ && base[w].key != 0)
                ++w;
            valid += w;
        }
        return valid;
    }

    /** The combined insert scan (policy in the file comment). */
    Slot
    findOrVictim(std::uint64_t set, std::uint64_t key)
    {
        return findOrVictimWhere(set, key,
                                 [](const Payload &) { return true; });
    }

    template <typename Pred>
    Slot
    findOrVictimWhere(std::uint64_t set, std::uint64_t key, Pred pred)
    {
        Way *base = setBase(set);
        // LRU tracking stays in registers (index + tick) so the scan
        // compiles to conditional moves: the tick comparison's outcome
        // is data-random, and a branch there mispredicts roughly every
        // other miss scan of a full set (the common case for the big
        // cache arrays).
        unsigned victim = 0;
        Tick victimTick = base[0].tick;
        for (unsigned w = 0; w < ways_; ++w) {
            Way &way = base[w];
            if (way.key == key && pred(way.payload))
                return {refOf(way), true};
            if (way.key == 0) {
                victim = w;     // first invalid way wins outright
                break;
            }
            const bool older = way.tick < victimTick;
            victimTick = older ? way.tick : victimTick;
            victim = older ? w : victim;
        }
        return {refOf(base[victim]), false};
    }

    /** Stamp a way as most recently used. */
    void
    touch(const Ref &ref)
    {
        if (tick_ == std::numeric_limits<Tick>::max())
            renormalizeTicks();
        *ref.tick = ++tick_;
    }

    /**
     * Drop the way holding @p key from @p set, if present. The set's
     * last valid way is moved into the hole so valid ways stay a
     * prefix — the invariant the combined scan's early exit relies on.
     * (Ticks are unique, so relocating a way cannot change any LRU
     * decision; only which physical slot it occupies.)
     */
    void
    invalidateKey(std::uint64_t set, std::uint64_t key)
    {
        Way *base = setBase(set);
        for (unsigned w = 0; w < ways_; ++w) {
            if (base[w].key != key)
                continue;
            unsigned last = ways_;
            while (last > w + 1 && base[last - 1].key == 0)
                --last;
            if (last - 1 > w)
                base[w] = base[last - 1];
            base[last - 1].key = 0;
            base[last - 1].tick = 0;
            return;
        }
    }

    /**
     * Drop every valid way whose (key, payload) satisfies @p pred —
     * the targeted-invalidation primitive behind the TLB/PWC VA-range
     * shootdowns (dyn subsystem). Full scan: this runs on OS events
     * (munmap, madvise), never on the per-access hot path.
     *
     * @p pred is invoked exactly once per valid way (clients may update
     * side counts inside it); removal compacts the set the same way
     * invalidateKey does, so valid ways stay a prefix and surviving
     * ticks — hence all LRU decisions — are untouched.
     * @return the number of ways dropped.
     */
    template <typename Pred>
    std::uint64_t
    invalidateWhere(Pred pred)
    {
        if (empty())
            return 0;
        std::uint64_t dropped = 0;
        for (std::uint64_t set = 0; set < sets_; ++set) {
            Way *base = setBase(set);
            unsigned valid = ways_;
            while (valid > 0 && base[valid - 1].key == 0)
                --valid;
            for (unsigned w = 0; w < valid;) {
                if (pred(base[w].key, base[w].payload)) {
                    if (w != valid - 1)
                        base[w] = base[valid - 1];
                    base[valid - 1].key = 0;
                    base[valid - 1].tick = 0;
                    --valid;
                    ++dropped;
                    // Re-test slot w: it now holds the not-yet-visited
                    // way moved down from the tail.
                } else {
                    ++w;
                }
            }
        }
        return dropped;
    }

    /** Invalidate everything and restart the recency clock. No-op on a
     *  never-initialized array (e.g. geometry-disabled PWC levels). */
    void
    flush()
    {
        if (empty())
            return;
        // Through void*: Way is not trivially copyable, but all-zero
        // bytes are exactly its invalid state.
        std::memset(static_cast<void *>(setBase(0)), 0,
                    store_.size() * sizeof(Way));
        tick_ = 0;
    }

  private:
    struct Way
    {
        std::uint64_t key;
        Tick tick;
        Payload payload;
    };

    /** First way of @p set; the index is checked unless NDEBUG. */
    Way *
    setBase(std::uint64_t set) const
    {
        return const_cast<Way *>(&store_[set * ways_]);
    }

    Ref
    refOf(Way &way) const
    {
        return {&way.key, &way.tick, &way.payload};
    }

    /**
     * Halve the recency clock, preserving LRU order. Entries older than
     * half the clock collapse to zero — after 2^32 operations on one
     * structure they are ancient history in any replacement sense.
     */
    void
    renormalizeTicks()
    {
        const Tick half = tick_ / 2;
        for (std::size_t i = 0; i < store_.size(); ++i) {
            Way &way = store_[i];
            way.tick = way.tick > half ? way.tick - half : 0;
        }
        tick_ -= half;
    }

    std::uint64_t sets_ = 0;
    unsigned ways_ = 0;
    std::uint64_t setMask_ = 0;
    ZeroPageArray<Way> store_;
    Tick tick_ = 0;
};

} // namespace asap

#endif // ASAP_COMMON_SET_ASSOC_HH
