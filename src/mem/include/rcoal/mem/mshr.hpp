/**
 * @file
 * Miss Status Handling Registers, shared by the L1 (per SM) and L2
 * (per partition) front ends: merges concurrent misses to the same
 * block so only one request travels down the hierarchy.
 */

#ifndef RCOAL_MEM_MSHR_HPP
#define RCOAL_MEM_MSHR_HPP

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "rcoal/common/types.hpp"
#include "rcoal/sim/memory_access.hpp"

namespace rcoal::mem {

/**
 * MSHR table keyed by block address.
 */
class MshrTable
{
  public:
    explicit MshrTable(std::size_t entries);

    /** True when a miss to @p block_addr is already outstanding. */
    bool isPending(Addr block_addr) const;

    /** True when a new block entry can be allocated. */
    bool canAllocate() const;

    /**
     * Allocate an entry for @p block_addr and remember @p access as its
     * primary request. Must not already be pending.
     */
    void allocate(Addr block_addr, sim::MemoryAccess access);

    /**
     * Merge @p access into the pending entry for @p block_addr
     * (must be pending). Returns the number of requests now waiting.
     */
    std::size_t merge(Addr block_addr, sim::MemoryAccess access);

    /**
     * The fill for @p block_addr arrived: pop and return all waiting
     * requests (primary first) and free the entry.
     */
    std::vector<sim::MemoryAccess> complete(Addr block_addr);

    std::size_t occupancy() const { return table.size(); }
    std::uint64_t merges() const { return mergeCount; }

    /**
     * Return to the freshly-constructed state. Requires no outstanding
     * entries (mergeCount is the only state that survives a drain —
     * before the reset audit it leaked across machine resets).
     */
    void reset();

    /** Snapshot walk, at quiescence (no outstanding entries). */
    template <typename Arena>
    void transferState(Arena &a);

  private:
    std::size_t capacity;
    std::unordered_map<Addr, std::vector<sim::MemoryAccess>> table;
    std::uint64_t mergeCount = 0;
};

} // namespace rcoal::mem

#endif // RCOAL_MEM_MSHR_HPP
