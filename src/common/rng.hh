/**
 * @file
 * Deterministic random number generation for the simulator.
 *
 * Every source of randomness in the reproduction (workload address streams,
 * the colocated co-runner, buddy-allocator churn) draws from an explicitly
 * seeded generator so that all experiments are reproducible bit-for-bit.
 *
 * Rng is xoshiro256** seeded via SplitMix64; ZipfianGenerator implements the
 * YCSB-style skewed key popularity used to model memcached/redis keyspaces.
 */

#ifndef ASAP_COMMON_RNG_HH
#define ASAP_COMMON_RNG_HH

#include <cstdint>
#include <cmath>

#include "common/logging.hh"

namespace asap
{

/** SplitMix64: used for seeding and as a cheap stateless mixer. */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state_;
};

/** Stateless 64-bit mixing function (useful for hashing keys to addresses). */
inline std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 33)) * 0xff51afd7ed558ccdull;
    z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53ull;
    return z ^ (z >> 33);
}

/**
 * xoshiro256** 1.0 — fast, high-quality deterministic PRNG.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 1)
    {
        SplitMix64 sm(seed);
        for (auto &s : state_)
            s = sm.next();
    }

    /** Uniform 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform value in [0, bound). @p bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        panic_if(bound == 0, "Rng::below(0)");
        // Lemire's multiply-shift bounded generation (slightly biased for
        // astronomically large bounds, irrelevant for simulation).
        return static_cast<std::uint64_t>(
            (static_cast<__uint128_t>(next()) * bound) >> 64);
    }

    /** Uniform value in [lo, hi] inclusive. */
    std::uint64_t
    between(std::uint64_t lo, std::uint64_t hi)
    {
        panic_if(hi < lo, "Rng::between: hi < lo");
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    real()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p. */
    bool
    chance(double p)
    {
        return real() < p;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

/**
 * Zipfian distribution over [0, n) with parameter theta, following the
 * Gray et al. algorithm popularized by YCSB. Used to model skewed key
 * popularity in the key-value workloads (memcached, redis).
 *
 * Item 0 is the most popular. Callers that want popular items scattered
 * across the keyspace should post-scramble with mix64 (ScrambledZipfian).
 */
class ZipfianGenerator
{
  public:
    ZipfianGenerator(std::uint64_t n, double theta = 0.99);

    /** Draw an item rank in [0, n). */
    std::uint64_t next(Rng &rng) const;

  private:
    std::uint64_t n_;
    double theta_;
    double zetan_;
    double alpha_;
    double eta_;

    static double zeta(std::uint64_t n, double theta);
};

/** Zipfian ranks scrambled uniformly over the item space. */
class ScrambledZipfian
{
  public:
    ScrambledZipfian(std::uint64_t n, double theta = 0.99)
        : zipf_(n, theta), n_(n)
    {}

    std::uint64_t
    next(Rng &rng) const
    {
        return mix64(zipf_.next(rng)) % n_;
    }

  private:
    ZipfianGenerator zipf_;
    std::uint64_t n_;
};

/**
 * Zipfian ranks scrambled at *block* granularity: ranks are permuted in
 * blocks of @p blockSize items, so items with nearby ranks stay nearby
 * in the item space while blocks scatter uniformly.
 *
 * This models slab/arena allocators (memcached, redis): similarly hot
 * items cluster on the same pages and their page-table entries share
 * cache lines, while the block placement itself carries no global
 * order.
 */
class BlockScrambledZipfian
{
  public:
    BlockScrambledZipfian(std::uint64_t n, double theta = 0.99,
                          std::uint64_t blockSize = 32)
        : zipf_(n, theta), n_(n), blockSize_(blockSize),
          numBlocks_((n + blockSize - 1) / blockSize)
    {}

    std::uint64_t
    next(Rng &rng) const
    {
        const std::uint64_t rank = zipf_.next(rng);
        const std::uint64_t block = rank / blockSize_;
        const std::uint64_t within = rank % blockSize_;
        const std::uint64_t shuffled = mix64(block) % numBlocks_;
        const std::uint64_t item = shuffled * blockSize_ + within;
        return item < n_ ? item : rank;
    }

  private:
    ZipfianGenerator zipf_;
    std::uint64_t n_;
    std::uint64_t blockSize_;
    std::uint64_t numBlocks_;
};

} // namespace asap

#endif // ASAP_COMMON_RNG_HH
