/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * All stochastic behaviour in RCoal (subwarp sizing, thread shuffling,
 * plaintext generation, attack-side randomization) flows through an
 * explicitly seeded Rng instance so that every experiment is exactly
 * reproducible. The generator is xoshiro256** seeded via SplitMix64,
 * implemented here rather than taken from <random> so that sequences are
 * stable across standard-library versions.
 */

#ifndef RCOAL_COMMON_RNG_HPP
#define RCOAL_COMMON_RNG_HPP

#include <array>
#include <bit>
#include <cstdint>
#include <iterator>
#include <ranges>
#include <vector>

#include "rcoal/common/logging.hpp"

namespace rcoal {

/**
 * SplitMix64 generator, used to expand a single 64-bit seed into the
 * xoshiro256** state and occasionally as a cheap standalone stream.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state(seed) {}

    /** Return the next 64-bit value. */
    std::uint64_t next();

  private:
    std::uint64_t state;
};

/**
 * Deterministic RNG used throughout RCoal (xoshiro256**).
 *
 * Satisfies the UniformRandomBitGenerator concept so it can be used with
 * standard algorithms, but prefer the explicit helpers below, whose
 * sequences are fixed by this code base (standard distributions are not
 * reproducible across library implementations).
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x5eed'c0a1'e5ce'0001ull);

    /** Reseed in place, restarting the sequence. */
    void reseed(std::uint64_t seed);

    /**
     * Counter-based stream derivation: the RNG for sub-experiment
     * @p stream_index of the experiment rooted at @p root_seed.
     *
     * Pure function of its arguments — no parent state, no ordering.
     * Trial i receives the same stream whether trials run serially,
     * out of order, or on many threads, which is what makes parallel
     * sweeps bit-reproducible. Distinct (root_seed, stream_index)
     * pairs give statistically independent streams.
     */
    static Rng stream(std::uint64_t root_seed, std::uint64_t stream_index);

    /**
     * The 64-bit seed stream() would construct its Rng from; exposed
     * so nested experiments can re-root (e.g. derive a per-trial GPU
     * seed, then per-launch streams below it).
     */
    static std::uint64_t deriveSeed(std::uint64_t root_seed,
                                    std::uint64_t stream_index);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    /** Next raw 64-bit value. */
    result_type operator()() { return next64(); }

    /** Next raw 64-bit value. */
    std::uint64_t
    next64()
    {
        const std::uint64_t result = std::rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = std::rotl(state[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound), bias-free; bound must be > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        RCOAL_ASSERT(bound > 0, "below() requires a positive bound");
        // Rejection sampling to remove modulo bias: accept r iff
        // r >= (2^64 - bound) % bound. That threshold is below bound,
        // so any r >= bound is accepted without computing it.
        for (;;) {
            const std::uint64_t r = next64();
            if (r >= bound || r >= (~bound + 1) % bound)
                return r % bound;
        }
    }

    /** Uniform integer in [lo, hi] inclusive; requires lo <= hi. */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double uniform01();

    /** Standard normal variate (Box-Muller, no cached spare). */
    double normal(double mean = 0.0, double stddev = 1.0);

    /** Bernoulli trial with success probability p. */
    bool chance(double p);

    /**
     * Fisher-Yates shuffle of a random-access range (a vector, array or
     * span; deterministic given the state).
     */
    template <std::ranges::random_access_range R>
    void
    shuffle(R &&v)
    {
        const auto first = std::ranges::begin(v);
        for (std::size_t i = std::ranges::size(v); i > 1; --i) {
            const std::size_t j = below(i);
            std::ranges::iter_swap(first + (i - 1), first + j);
        }
    }

    /**
     * A uniformly random @p k-subset of [0, n) as a bitmask (bit v set
     * iff v was chosen), by Floyd's algorithm: k below() calls, no
     * storage. Requires k <= n <= 64.
     */
    std::uint64_t sampleDistinctBits(unsigned k, unsigned n);

    /** The subset sampleDistinctBits(k, n) draws, in increasing order. */
    std::vector<std::uint64_t> sampleDistinctSorted(unsigned k, unsigned n);

  private:
    std::array<std::uint64_t, 4> state;
};

} // namespace rcoal

#endif // RCOAL_COMMON_RNG_HPP
