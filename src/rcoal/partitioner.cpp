/**
 * @file
 * SubwarpPartitioner implementation.
 */

#include "rcoal/core/partitioner.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "rcoal/common/logging.hpp"

namespace rcoal::core {

namespace {

/**
 * Boundaries of normal RSS sizes: m iid Normal(n / m, sigma) variates
 * rounded to integers, clamped to [1, n], then rebalanced to sum
 * exactly n; bit t set when thread t ends its subwarp.
 */
std::uint64_t
normalBoundaries(Rng &rng, unsigned n, unsigned m, double sigma)
{
    std::array<unsigned, SubwarpPartition::kMaxThreads> sizes{};
    const double mean = static_cast<double>(n) / m;
    long total = 0;
    for (unsigned i = 0; i < m; ++i) {
        const double v = std::round(rng.normal(mean, sigma));
        const long clamped = std::max(1L, static_cast<long>(v));
        sizes[i] = static_cast<unsigned>(
            std::min<long>(clamped, static_cast<long>(n)));
        total += sizes[i];
    }
    // Rebalance to sum exactly n while keeping every size >= 1.
    while (total > static_cast<long>(n)) {
        const unsigned i = static_cast<unsigned>(rng.below(m));
        if (sizes[i] > 1) {
            --sizes[i];
            --total;
        }
    }
    while (total < static_cast<long>(n)) {
        const unsigned i = static_cast<unsigned>(rng.below(m));
        ++sizes[i];
        ++total;
    }
    std::uint64_t ends = 0;
    unsigned first = 0;
    for (unsigned i = 0; i + 1 < m; ++i) {
        first += sizes[i];
        ends |= std::uint64_t{1} << (first - 1);
    }
    return ends;
}

} // namespace

SubwarpPartitioner::SubwarpPartitioner(CoalescingPolicy policy,
                                       unsigned warp_size)
    : pol(policy), n(warp_size)
{
    RCOAL_ASSERT(warp_size >= 1, "warp size must be positive");
    if (warp_size > SubwarpPartition::kMaxThreads) {
        fatal("warp size %u exceeds the inline partition capacity %u",
              warp_size, SubwarpPartition::kMaxThreads);
    }
    pol.validate(warp_size);
}

std::uint64_t
SubwarpPartitioner::sampleBoundaries(Rng &rng) const
{
    const unsigned m = pol.numSubwarps;
    switch (pol.mechanism) {
      case Mechanism::Baseline:
        return 0;
      case Mechanism::Disabled:
        // One thread per subwarp: coalescing degenerates to one access
        // per active thread, matching disabled coalescing exactly.
        return (std::uint64_t{1} << (n - 1)) - 1;
      case Mechanism::Fss: {
        // N/M threads each; the first N mod M subwarps get one extra.
        std::uint64_t ends = 0;
        unsigned first = 0;
        for (unsigned i = 0; i + 1 < m; ++i) {
            first += n / m + (i < n % m ? 1 : 0);
            ends |= std::uint64_t{1} << (first - 1);
        }
        return ends;
      }
      case Mechanism::Rss:
        if (pol.sizing == RssSizing::Normal)
            return normalBoundaries(rng, n, m, pol.normalSigma);
        // A composition of n into m positive parts corresponds to a
        // choice of m-1 distinct cut points among the n-1 gaps between
        // consecutive threads; sampling cut points uniformly makes
        // every composition equally likely and guarantees no subwarp
        // is empty.
        return rng.sampleDistinctBits(m - 1, n - 1);
    }
    panic("invalid mechanism");
}

SubwarpPartition
SubwarpPartitioner::draw(Rng &rng) const
{
    // Built in place and valid by construction: every subwarp between
    // two boundaries holds at least one thread.
    const std::uint64_t ends = sampleBoundaries(rng);
    SubwarpPartition partition;
    partition.n = n;
    const auto threads = std::span(partition.sid).first(n);
    SubwarpId sid = 0;
    for (unsigned t = 0; t < n; ++t) {
        threads[t] = sid;
        sid += static_cast<SubwarpId>((ends >> t) & 1);
    }
    partition.m = sid + 1;
    // RTS: assign the available sids to the threads in random order.
    // The baseline is one in-order subwarp whatever the policy says.
    if (pol.randomThreads && pol.mechanism != Mechanism::Baseline)
        rng.shuffle(threads);
    return partition;
}

} // namespace rcoal::core
