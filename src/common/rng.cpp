/**
 * @file
 * xoshiro256** / SplitMix64 implementation.
 *
 * Reference algorithms by Blackman & Vigna (public domain).
 */

#include "rcoal/common/rng.hpp"

#include <bit>
#include <cmath>

#include "rcoal/common/logging.hpp"

namespace rcoal {

std::uint64_t
SplitMix64::next()
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed)
{
    reseed(seed);
}

void
Rng::reseed(std::uint64_t seed)
{
    SplitMix64 sm(seed);
    for (auto &word : state)
        word = sm.next();
}

std::uint64_t
Rng::deriveSeed(std::uint64_t root_seed, std::uint64_t stream_index)
{
    // Two chained SplitMix64 scrambles of (root, index). The first is
    // an O(1) jump to output `stream_index` of the SplitMix64 sequence
    // rooted at root_seed (its state advances by the golden-ratio gamma
    // per draw); the second decorrelates that value from the direct
    // SplitMix64 expansion Rng(root_seed) uses for its own state.
    SplitMix64 jump(root_seed +
                    stream_index * 0x9e3779b97f4a7c15ull);
    SplitMix64 scramble(jump.next() ^ 0xd1b54a32d192ed03ull);
    return scramble.next();
}

Rng
Rng::stream(std::uint64_t root_seed, std::uint64_t stream_index)
{
    return Rng(deriveSeed(root_seed, stream_index));
}

std::int64_t
Rng::range(std::int64_t lo, std::int64_t hi)
{
    RCOAL_ASSERT(lo <= hi, "range() requires lo <= hi");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    if (span == 0) // full 64-bit range
        return static_cast<std::int64_t>(next64());
    return lo + static_cast<std::int64_t>(below(span));
}

double
Rng::uniform01()
{
    // 53 high-quality bits -> double in [0, 1).
    return static_cast<double>(next64() >> 11) * 0x1.0p-53;
}

double
Rng::normal(double mean, double stddev)
{
    // Box-Muller; draw u1 in (0, 1] to avoid log(0).
    double u1;
    do {
        u1 = uniform01();
    } while (u1 <= 0.0);
    const double u2 = uniform01();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    const double z = mag * std::cos(2.0 * M_PI * u2);
    return mean + stddev * z;
}

bool
Rng::chance(double p)
{
    return uniform01() < p;
}

std::uint64_t
Rng::sampleDistinctBits(unsigned k, unsigned n)
{
    RCOAL_ASSERT(k <= n && n <= 64,
                 "cannot sample %u distinct values from %u (max 64)", k, n);
    // Floyd: for j = n-k .. n-1 take t = below(j + 1), or j itself when
    // t is already chosen (j cannot be: every earlier pick is < j).
    std::uint64_t chosen = 0;
    for (unsigned j = n - k; j < n; ++j) {
        const std::uint64_t t = below(j + 1);
        chosen |= std::uint64_t{1} << ((chosen >> t) & 1 ? j : t);
    }
    return chosen;
}

std::vector<std::uint64_t>
Rng::sampleDistinctSorted(unsigned k, unsigned n)
{
    std::vector<std::uint64_t> out;
    out.reserve(k);
    for (std::uint64_t bits = sampleDistinctBits(k, n); bits != 0;
         bits &= bits - 1)
        out.push_back(static_cast<std::uint64_t>(std::countr_zero(bits)));
    return out;
}

} // namespace rcoal
