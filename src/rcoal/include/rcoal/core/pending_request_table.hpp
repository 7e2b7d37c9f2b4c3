/**
 * @file
 * Pending Request Table (PRT) of the modified memory coalescing unit.
 *
 * Mirrors Fig. 11 of the paper: each entry logs a thread's memory
 * request (tid, base address, offset, size) plus the subwarp-id (sid)
 * field RCoal adds so the coalescer knows which threads to merge. This
 * is the functional model: the simulator's LD/ST unit changes timing
 * only through the table's capacity, so it keeps an occupancy count
 * (StreamingMultiprocessor::prtUsed) that matches this table's
 * allocate()/release() accounting, one entry per lane an access serves.
 */

#ifndef RCOAL_CORE_PENDING_REQUEST_TABLE_HPP
#define RCOAL_CORE_PENDING_REQUEST_TABLE_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "rcoal/common/types.hpp"

namespace rcoal::core {

/** One PRT entry (Fig. 11). */
struct PrtEntry
{
    bool valid = false;
    ThreadId tid = 0;
    Addr baseAddr = 0;       ///< Block-aligned base of the access.
    std::uint32_t offset = 0;///< Byte offset of the request in the block.
    std::uint32_t size = 0;  ///< Request size in bytes.
    SubwarpId sid = 0;       ///< RCoal addition: subwarp-id field.
    bool pending = false;    ///< True while the access is in flight.
};

/**
 * Fixed-capacity pending request table.
 */
class PendingRequestTable
{
  public:
    /** @p entries is the hardware table capacity. */
    explicit PendingRequestTable(std::size_t entries);

    /** Table capacity. */
    std::size_t capacity() const { return table.size(); }

    /** Number of valid entries. */
    std::size_t occupancy() const { return used; }

    /** Number of free entries. */
    std::size_t freeEntries() const { return capacity() - used; }

    /**
     * Allocate an entry; returns its index or nullopt when full.
     */
    std::optional<std::size_t> allocate(ThreadId tid, Addr base_addr,
                                        std::uint32_t offset,
                                        std::uint32_t size, SubwarpId sid);

    /** Mark an entry's access as issued to the memory system. */
    void markPending(std::size_t index);

    /** Retire (free) an entry once its data returned. */
    void release(std::size_t index);

    /** Access an entry (must be valid). */
    const PrtEntry &entry(std::size_t index) const;

    /**
     * Indices of all valid entries with the given sid, ascending.
     * Allocates the result vector; hot paths use forEachOfSubwarp().
     */
    std::vector<std::size_t> entriesOfSubwarp(SubwarpId sid) const;

    /**
     * Visit every valid entry with the given sid, allocation-free, via
     * the per-sid intrusive list (most recently allocated first).
     * @p fn is called as fn(std::size_t index, const PrtEntry &).
     */
    template <typename Fn>
    void
    forEachOfSubwarp(SubwarpId sid, Fn &&fn) const
    {
        if (sid >= sidHead.size())
            return;
        for (std::uint32_t i = sidHead[sid]; i != kNone; i = sidNext[i])
            fn(static_cast<std::size_t>(i), table[i]);
    }

    /** Hardware cost of the sid field in bits (Section IV-D). */
    static std::size_t sidFieldBits(unsigned warp_size);

    /**
     * Return the table to its freshly-constructed state. Requires the
     * table to be empty; rebuilds the pristine free-list order so a
     * quiescent table is byte-identical to a new one (entry indices are
     * pure IDs with no observable effect, so canonicalizing the LIFO
     * order is behavior-preserving).
     */
    void reset();

  private:
    /** Unlink @p index from its sid's intrusive list. */
    void unlinkFromSid(std::size_t index);

    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    std::vector<PrtEntry> table;
    std::vector<std::size_t> freeList; ///< LIFO of free entry indices.
    std::size_t used = 0;
    /**
     * Per-sid doubly-linked intrusive lists over the table, so
     * subwarp-scoped walks touch only that subwarp's entries instead of
     * scanning the whole table. sidHead grows on demand with the
     * largest sid seen; sidNext/sidPrev parallel the table.
     */
    std::vector<std::uint32_t> sidHead;
    std::vector<std::uint32_t> sidNext;
    std::vector<std::uint32_t> sidPrev;
};

} // namespace rcoal::core

#endif // RCOAL_CORE_PENDING_REQUEST_TABLE_HPP
