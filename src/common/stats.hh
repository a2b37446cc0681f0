/**
 * @file
 * Lightweight statistics primitives: mean/min/max accumulators and
 * per-MemLevel distributions (bucketed histograms: obs/histogram.hh).
 *
 * These deliberately avoid any global registry: each simulator component
 * owns its stats and the scenario runner aggregates them into reports.
 */

#ifndef ASAP_COMMON_STATS_HH
#define ASAP_COMMON_STATS_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <string>

#include "common/mem_level.hh"

namespace asap
{

/**
 * Accumulates samples of a scalar quantity (e.g. page-walk latency) and
 * exposes count/sum/mean/min/max/variance.
 *
 * All accumulation is exact integer arithmetic — the second moment in
 * 128 bits (a 64-bit sample squared cannot overflow a u128 until ~2^64
 * samples of 2^32, far beyond any run) — so merge() is *associative
 * and bit-for-bit equal to serial accumulation* regardless of how
 * samples are partitioned across runs (the multi-core model sums its
 * tenants this way). A naive float pooled-variance merge would not be;
 * that exactness is what the SampleStatMerge tests pin.
 */
class SampleStat
{
  public:
    void
    sample(std::uint64_t value)
    {
        ++count_;
        sum_ += value;
        sumSquares_ += static_cast<unsigned __int128>(value) * value;
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }

    /** Fold another accumulator in (cross-run / cross-tenant
     *  aggregation). Exact: every field is an integer sum or a
     *  min/max, so merge order cannot change the result. */
    void
    merge(const SampleStat &other)
    {
        count_ += other.count_;
        sum_ += other.sum_;
        sumSquares_ += other.sumSquares_;
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }

    /** Second moment, split into u64 halves for serialization. */
    std::uint64_t
    sumSquaresHi() const
    {
        return static_cast<std::uint64_t>(sumSquares_ >> 64);
    }
    std::uint64_t
    sumSquaresLo() const
    {
        return static_cast<std::uint64_t>(sumSquares_);
    }

    /** Rebuild from serialized fields (sweep-journal resume). @p min
     *  is the *reported* min, i.e. 0 stands for "empty" when count is
     *  0 — the internal empty sentinel is restored in that case.
     *  @p sqHi / @p sqLo are the second moment's u64 halves. */
    void
    restore(std::uint64_t count, std::uint64_t sum, std::uint64_t min,
            std::uint64_t max, std::uint64_t sqHi = 0,
            std::uint64_t sqLo = 0)
    {
        count_ = count;
        sum_ = sum;
        sumSquares_ =
            (static_cast<unsigned __int128>(sqHi) << 64) | sqLo;
        min_ = count ? min : std::numeric_limits<std::uint64_t>::max();
        max_ = max;
    }

    double
    mean() const
    {
        return count_ == 0 ? 0.0
                           : static_cast<double>(sum_) /
                                 static_cast<double>(count_);
    }

    /** Population variance E[x^2] - E[x]^2 (0 when empty). */
    double
    variance() const
    {
        if (count_ == 0)
            return 0.0;
        const double n = static_cast<double>(count_);
        const double m = mean();
        return static_cast<double>(sumSquares_) / n - m * m;
    }

  private:
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    /** Exact second moment (see class comment). */
    unsigned __int128 sumSquares_ = 0;
    std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_ = 0;
};

/**
 * Counts events by serving memory level (Fig. 9 semantics).
 */
class LevelDistribution
{
  public:
    void
    record(MemLevel level)
    {
        ++counts_[static_cast<std::size_t>(level)];
        ++total_;
    }

    std::uint64_t
    count(MemLevel level) const
    {
        return counts_[static_cast<std::size_t>(level)];
    }

    std::uint64_t total() const { return total_; }

    double
    fraction(MemLevel level) const
    {
        return total_ == 0 ? 0.0
                           : static_cast<double>(count(level)) /
                                 static_cast<double>(total_);
    }

    /** Fold another distribution in (cross-cell aggregation). */
    void
    merge(const LevelDistribution &other)
    {
        for (std::size_t i = 0; i < counts_.size(); ++i)
            counts_[i] += other.counts_[i];
        total_ += other.total_;
    }

    /** Rebuild one level's count from serialized fields (sweep-journal
     *  resume); total_ tracks the sum of all set counts. */
    void
    restoreCount(MemLevel level, std::uint64_t count)
    {
        std::uint64_t &slot = counts_[static_cast<std::size_t>(level)];
        total_ += count - slot;
        slot = count;
    }

    /** "PWC 62.0% L1 20.1% L2 ..." one-line summary. */
    std::string format() const;

  private:
    std::array<std::uint64_t, numMemLevels> counts_{};
    std::uint64_t total_ = 0;
};

} // namespace asap

#endif // ASAP_COMMON_STATS_HH
