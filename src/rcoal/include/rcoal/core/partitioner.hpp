/**
 * @file
 * Subwarp partition sampling for each defense mechanism.
 *
 * The partitioner turns a CoalescingPolicy into concrete SubwarpPartition
 * draws. Per Section IV-D of the paper, the hardware fixes the sid<->tid
 * mapping once at the beginning of an application execution (a kernel
 * launch), so the simulator calls draw() once per warp per launch. The
 * defense-aware attacker calls it once per (guess, plaintext, warp).
 */

#ifndef RCOAL_CORE_PARTITIONER_HPP
#define RCOAL_CORE_PARTITIONER_HPP

#include <cstdint>

#include "rcoal/common/rng.hpp"
#include "rcoal/core/policy.hpp"
#include "rcoal/core/subwarp.hpp"

namespace rcoal::core {

/**
 * Draws SubwarpPartitions according to a CoalescingPolicy.
 */
class SubwarpPartitioner
{
  public:
    /**
     * @p warp_size is N (32 in the paper's configuration); at most
     * SubwarpPartition::kMaxThreads.
     */
    SubwarpPartitioner(CoalescingPolicy policy, unsigned warp_size);

    /** The policy being realized. */
    const CoalescingPolicy &policy() const { return pol; }

    /** Warp size N. */
    unsigned warpSize() const { return n; }

    /**
     * Draw a partition. Deterministic policies (Baseline, Disabled, FSS
     * without RTS) ignore the RNG and always return the same partition.
     *
     * Allocation-free, and the RNG call order is part of the contract
     * (pinned by the PartitionerGolden digests): RSS sizing first —
     * skewed: one Floyd sample of M-1 cut points among the N-1 thread
     * gaps; normal: M Normal(N/M, sigma) variates, then below(M) per
     * rebalancing step — then, under RTS, one Fisher-Yates shuffle of
     * the N in-order sids.
     */
    SubwarpPartition draw(Rng &rng) const;

  private:
    /**
     * Subwarp boundaries of the next in-order draw: bit t is set when
     * thread t is the last of its subwarp (t < N - 1). FSS gives N/M
     * threads each (the first N mod M get one extra); skewed RSS is
     * uniform over all compositions of N into M positive parts
     * (Section V-B3); normal RSS rounds iid Normal(N/M, sigma) to
     * integers >= 1 and rebalances them to sum to N.
     */
    std::uint64_t sampleBoundaries(Rng &rng) const;

    CoalescingPolicy pol;
    unsigned n;
};

} // namespace rcoal::core

#endif // RCOAL_CORE_PARTITIONER_HPP
