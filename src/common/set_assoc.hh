/**
 * @file
 * The one set-associative array underneath every lookup structure in the
 * simulator: caches, TLBs, the clustered TLB and the page walk caches.
 *
 * Before this template existed, each of those structures carried its own
 * copy of the same three loops (tag probe, LRU victim choice, flush);
 * they have been unified here so the hot loops are written — and
 * optimized — once. Each way stores a 64-bit search key and the client
 * payload *together*, and each set keeps its ways in recency order, most
 * recently used first: these scans dominate the simulator's wall-clock
 * time and are bound by host memory traffic on the big arrays, so a
 * probe must fetch one contiguous run of cache lines that the recency
 * update then hits for free. The payload is [[no_unique_address]], so a
 * cache way is its 8-byte key (the paper LLC's array is 2.5 MiB and a
 * 20-way set 2.5 host cache lines); a TLB way is 16 bytes, a PWC way 24
 * and a clustered-TLB way 32.
 *
 * Why recency order and not an LRU tick per way: a 32-bit tick made a
 * cache way 16 bytes and cost every miss of a full set a scan of all
 * ways for the oldest tick. In recency order a cache way is 8 bytes, a
 * miss needs no victim scan, and a hit on the MRU way is one compare
 * that writes nothing; every hit, miss and victim is the same. On a
 * 4-vCPU host, 10 interleaved 20-s simbench pairs at seed 2 (medians,
 * tick → recency order) read 2.25 → 3.25 Macc/s on virt_coloc (1.44x,
 * ahead in 10 of 10; 1.51x in 5 of 5 at seed 7); 4 pairs read 1.25x on
 * native_asap and 1.18x on tenant_churn, and two batches of 4 and 6
 * read 1.12x and 1.13x on the noisier fig8_sweep (ahead in 6 of 10).
 * A traced virt_coloc run at seed 1 put the saving in the co-runner
 * (130 → 79 ns per access), TLB hits (49 → 32 ns) and data accesses
 * (36 → 21 ns); building a Machine took 2.10 → 0.95 ms (half the array
 * pages to populate).
 *
 * Measured dead ends, not to be retried (the first four measured with
 * per-way ticks): a global key/tick/payload (SoA) split pays a second
 * dependent random fetch on every victim scan (20-35% slower
 * end-to-end); a per-*set* blocked [keys][ticks][payloads] layout still
 * splits the hit path's key read and tick write across lines (≈25%
 * slower); AVX2 key scans lose to the scalar loop because they cannot
 * early-exit (hit-early and half-empty sets terminate the scalar scan
 * after a way or two); and a software-pipelined lookahead in the access
 * loop, which `__builtin_prefetch`ed the sets access i+16 would scan (a
 * PL2 PWC peek, the leaf PTE line, the data's LLC set, and a run-ahead
 * copy of the co-runner RNG), cost more than it hid. With it off,
 * simbench's 20-s runs on a 4-vCPU host simulated 10.8% faster on
 * native_asap (6 of 6 interleaved pairs), 3.9% on virt_coloc and 6.5%
 * on fig8_sweep, so it was deleted.
 *
 * Measured follow-up, blocked: 32-bit cache keys (the tag above the
 * set-index bits), on top of recency order, measured a further 1.125x
 * sim_rate on virt_coloc and 1.05x on native_asap in a prototype (6 of
 * 6 interleaved pairs each). But mc::MultiCoreSimulator::lineBiasOf
 * adds tenant << 40 to every line address, so an L1 key (the address
 * above bit 12) reaches 2^32 from tenant 16 on. The bias has to be
 * redesigned before keys can shrink.
 *
 * An invalid way has key 0 (real keys are biased by +1 when stored, see
 * keyFor — no address-derived key collides) and an unspecified payload.
 * A freshly zeroed array therefore *is* the flushed state, which keeps
 * construction and flush at zero-page speed instead of writing sentinel
 * patterns over megabytes.
 *
 * Every array is its own pre-faulted zero-page mapping (a populated
 * ZeroPageArray), so its page faults are taken while the Machine is
 * built. Mapped lazily, an array takes a read fault and then a write
 * fault per page inside the measured simulation, as it first reaches
 * each set: about 2,580 minor faults in a native_asap-shaped run with
 * the (then 5 MiB) LLC, against 1,280 up front. Heap calloc returns an
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
 * Replacement policy — true LRU, read off the recency order:
 *   1. a way whose key matches (plus an optional payload predicate for
 *      clients whose match is wider than the key) wins — refresh/merge;
 *   2. otherwise the first invalid way is the victim (valid ways always
 *      form a prefix of the set: fills take the first hole and
 *      invalidateWhere compacts stably, so a scan that stops at an
 *      invalid way can never shadow a later match);
 *   3. otherwise the last way, the least recently used one.
 * touch() then moves the way to the front. Only the ways' order carries
 * recency, so which invalid slot a fill takes is never observed, and no
 * clock can wrap: the order stays exact LRU however long a structure
 * runs.
 */

#ifndef ASAP_COMMON_SET_ASSOC_HH
#define ASAP_COMMON_SET_ASSOC_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "common/types.hh"
#include "common/zero_pages.hh"

namespace asap
{

/** Payload type for tag-only clients (plain caches). */
struct NoPayload
{
};

template <typename Payload = NoPayload>
class SetAssoc
{
  public:
    /** A located way: key/payload views into one stored way. touch()
     *  moves ways, so a Ref is stale once its set has been touched. */
    struct Ref
    {
        std::uint64_t *key = nullptr;
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
        return findWhere(set, key, [](const Payload &) { return true; });
    }

    /** Const probe (non-perturbing paths like Cache::probe). */
    Ref
    find(std::uint64_t set, std::uint64_t key) const
    {
        return const_cast<SetAssoc *>(this)->find(set, key);
    }

    /** Probe for @p key where the payload also satisfies @p pred (for
     *  clients whose match predicate is wider than the key). The scan
     *  stops at the first invalid way: valid ways form a prefix. */
    template <typename Pred>
    Ref
    findWhere(std::uint64_t set, std::uint64_t key, Pred pred)
    {
        Way *base = setBase(set);
        for (unsigned w = 0; w < ways_ && base[w].key != 0; ++w) {
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
        for (unsigned w = 0; w < ways_; ++w) {
            Way &way = base[w];
            if (way.key == key && pred(way.payload))
                return {refOf(way), true};
            if (way.key == 0)
                return {refOf(way), false};
        }
        return {refOf(base[ways_ - 1]), false};
    }

    /**
     * Make @p ref's way the most recently used of @p set: it moves to
     * the front and the ways before it shift back by one, in one
     * memmove. A way already in front is left alone, so a hit on the
     * MRU way writes nothing. @return the way's new location.
     */
    Ref
    touch(std::uint64_t set, const Ref &ref)
    {
        Way *base = setBase(set);
        // The key is Way's first member (standard layout), so the two
        // pointers are interconvertible.
        Way *way = reinterpret_cast<Way *>(ref.key);
        if (way != base) {
            const Way moved = *way;
            std::memmove(static_cast<void *>(base + 1), base,
                         static_cast<std::size_t>(way - base) * sizeof(Way));
            *base = moved;
        }
        return refOf(*base);
    }

    /**
     * Drop every valid way whose (key, payload) satisfies @p pred —
     * the targeted-invalidation primitive behind the TLB/PWC VA-range
     * shootdowns (dyn subsystem). Full scan: this runs on OS events
     * (munmap, madvise), never on the per-access hot path.
     *
     * @p pred is invoked exactly once per valid way (clients may update
     * side counts inside it). Each set is compacted stably: survivors
     * keep their recency order and valid ways stay a prefix.
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
            unsigned kept = 0;
            unsigned w = 0;
            for (; w < ways_ && base[w].key != 0; ++w) {
                if (pred(base[w].key, base[w].payload))
                    continue;
                if (kept != w)
                    base[kept] = base[w];
                ++kept;
            }
            dropped += w - kept;
            for (; kept < w; ++kept)
                base[kept].key = 0;
        }
        return dropped;
    }

    /** Invalidate everything. No-op on a never-initialized array (e.g.
     *  geometry-disabled PWC levels). */
    void
    flush()
    {
        if (empty())
            return;
        // Through void*: Way need not be trivially constructible, but
        // all-zero bytes are exactly its invalid state.
        std::memset(static_cast<void *>(setBase(0)), 0,
                    store_.size() * sizeof(Way));
    }

  private:
    struct Way
    {
        std::uint64_t key;
        /** Takes no bytes when empty (NoPayload): a cache way is its
         *  8-byte key. */
        [[no_unique_address]] Payload payload;
    };
    static_assert(std::is_standard_layout_v<Way>,
                  "touch() converts a key pointer to its Way");
    static_assert(!std::is_empty_v<Payload> ||
                      sizeof(Way) == sizeof(std::uint64_t),
                  "a tag-only way is its key");

    /** First way of @p set; the index is checked unless NDEBUG. */
    Way *
    setBase(std::uint64_t set) const
    {
        return const_cast<Way *>(&store_[set * ways_]);
    }

    Ref
    refOf(Way &way) const
    {
        return {&way.key, &way.payload};
    }

    std::uint64_t sets_ = 0;
    unsigned ways_ = 0;
    std::uint64_t setMask_ = 0;
    ZeroPageArray<Way> store_;
};

} // namespace asap

#endif // ASAP_COMMON_SET_ASSOC_HH
