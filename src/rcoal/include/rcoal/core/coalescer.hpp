/**
 * @file
 * Intra-warp memory access coalescing at subwarp granularity.
 *
 * The coalescer merges the per-thread memory requests of one warp memory
 * instruction into as few block-sized accesses as possible, considering
 * only threads within the same subwarp together (Section II-A, Fig. 2).
 */

#ifndef RCOAL_CORE_COALESCER_HPP
#define RCOAL_CORE_COALESCER_HPP

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "rcoal/common/types.hpp"
#include "rcoal/core/subwarp.hpp"

namespace rcoal::core {

/** One thread's memory request within a warp instruction. */
struct LaneRequest
{
    ThreadId tid = 0;    ///< Lane within the warp.
    Addr addr = 0;       ///< Byte address.
    std::uint32_t size = 4; ///< Request size in bytes.
    bool active = true;  ///< False for threads masked off by divergence.
};

/**
 * Fixed-capacity inline lane list. A coalesced access serves at most
 * one lane per warp thread, and a warp holds at most kCapacity threads
 * (a static_assert in GpuConfig::validate() ties kCapacity to
 * SubwarpPartition::kMaxThreads), so the coalescing hot path never
 * touches the heap.
 */
struct LaneList
{
    static constexpr std::size_t kCapacity = 32;

    void push_back(ThreadId tid)
    {
        assert(count < kCapacity && "coalesced lane list overflow");
        lanes[count++] = tid;
    }
    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    const ThreadId *begin() const { return lanes.data(); }
    const ThreadId *end() const { return lanes.data() + count; }

    std::array<ThreadId, kCapacity> lanes{};
    std::uint32_t count = 0;
};

/** One coalesced memory access produced by the coalescer. */
struct CoalescedAccess
{
    Addr blockAddr = 0;  ///< Block-aligned base address.
    SubwarpId sid = 0;   ///< Subwarp that generated the access.
    LaneList threads;    ///< Lanes served by this access.
};

/**
 * Subwarp-aware coalescer.
 *
 * Stateless with respect to timing; the simulator owns request timing via
 * the PendingRequestTable. Accesses are emitted grouped by subwarp in
 * increasing sid order, and by block address within a subwarp, which
 * matches hardware that scans the PRT one subwarp at a time.
 */
class Coalescer
{
  public:
    /** @p block_size is the coalescing granularity in bytes (power of 2). */
    explicit Coalescer(std::uint32_t block_size);

    /** Coalescing granularity in bytes. */
    std::uint32_t blockSize() const { return blockBytes; }

    /** Block-align an address. */
    Addr blockAlign(Addr addr) const { return addr & ~Addr{blockBytes - 1}; }

    /**
     * Coalesce one warp instruction's requests under @p partition.
     * Requests crossing a block boundary generate one access per touched
     * block. Inactive lanes are ignored.
     */
    std::vector<CoalescedAccess>
    coalesce(std::span<const LaneRequest> requests,
             const SubwarpPartition &partition) const;

    /**
     * As coalesce(), but reusing @p out (cleared first): a caller that
     * keeps its output buffer alive pays no allocation once the buffer
     * has grown to its working size.
     */
    void coalesceInto(std::span<const LaneRequest> requests,
                      const SubwarpPartition &partition,
                      std::vector<CoalescedAccess> &out) const;

    /**
     * Number of accesses coalesceInto() would emit, through the same
     * dedup and without building the lists (the serve scheduler's
     * per-launch baseline prediction for the leakage auditor).
     */
    unsigned countAccesses(std::span<const LaneRequest> requests,
                           const SubwarpPartition &partition) const;

  private:
    /**
     * Unbounded fallback for inputs overflowing coalesceInto()'s inline
     * scratch; emits the identical access list via struct scanning.
     */
    void coalesceSlow(std::span<const LaneRequest> requests,
                      const SubwarpPartition &partition,
                      std::vector<CoalescedAccess> &out) const;

    std::uint32_t blockBytes;
    unsigned blockShift; ///< log2(blockBytes).
};

} // namespace rcoal::core

#endif // RCOAL_CORE_COALESCER_HPP
