/**
 * @file
 * Subwarp partition: the sid <-> tid mapping the modified MCU coalesces
 * by (Fig. 11 of the paper).
 */

#ifndef RCOAL_CORE_SUBWARP_HPP
#define RCOAL_CORE_SUBWARP_HPP

#include <array>
#include <initializer_list>
#include <span>
#include <vector>

#include "rcoal/common/types.hpp"

namespace rcoal::core {

/**
 * A concrete assignment of every warp thread to a subwarp.
 *
 * The per-thread sids are stored inline (no heap), so a partition is a
 * plain value the simulator and the attacker can draw per warp at no
 * allocation cost.
 *
 * Invariants (enforced by validate()):
 *  - sidOfThread has one entry per thread (at most kMaxThreads), each
 *    < numSubwarps;
 *  - every subwarp is non-empty (the paper's skewed distribution
 *    explicitly guarantees this, Section V-B3).
 */
class SubwarpPartition
{
  public:
    /**
     * Most threads a partition holds. Matches the inline PRT index
     * capacity that bounds GpuConfig::warpSize.
     */
    static constexpr unsigned kMaxThreads = 32;

    /** Build from an explicit per-thread sid list. */
    SubwarpPartition(std::span<const SubwarpId> sid_of_thread,
                     unsigned num_subwarps);

    /** Build from a literal sid list, e.g. {0, 1, 0, 1}. */
    SubwarpPartition(std::initializer_list<SubwarpId> sid_of_thread,
                     unsigned num_subwarps)
        : SubwarpPartition(std::span(sid_of_thread.begin(),
                                     sid_of_thread.size()),
                           num_subwarps)
    {
    }

    /** The in-order single-subwarp partition (the baseline). */
    static SubwarpPartition single(unsigned warp_size);

    /**
     * In-order partition with the given subwarp sizes: the first
     * sizes[0] threads form subwarp 0, and so on.
     */
    static SubwarpPartition fromSizes(const std::vector<unsigned> &sizes);

    /** Number of threads in the warp. */
    unsigned warpSize() const { return n; }

    /** Number of subwarps M. */
    unsigned numSubwarps() const { return m; }

    /** Subwarp of thread @p tid. */
    SubwarpId subwarpOf(ThreadId tid) const;

    /** Per-thread sids (index = tid), valid while the partition lives. */
    std::span<const SubwarpId> sidOfThread() const { return {sid.data(), n}; }

    /** Thread ids belonging to subwarp @p s, in increasing tid order. */
    std::vector<ThreadId> threadsOf(SubwarpId s) const;

    /** Size of each subwarp, indexed by sid. */
    std::vector<unsigned> sizes() const;

    /**
     * True when threads are assigned to subwarps in tid order (i.e. no
     * RTS shuffling): sid values are non-decreasing across tids.
     */
    bool isInOrder() const;

    /** Panics if an invariant is violated. */
    void validate() const;

    /** Entries past warpSize() stay zero, so this compares the sids. */
    bool operator==(const SubwarpPartition &other) const = default;

  private:
    /** SubwarpPartitioner::draw() fills an empty partition in place. */
    friend class SubwarpPartitioner;
    SubwarpPartition() = default;

    std::array<SubwarpId, kMaxThreads> sid{};
    unsigned n = 0;
    unsigned m = 0;
};

} // namespace rcoal::core

#endif // RCOAL_CORE_SUBWARP_HPP
