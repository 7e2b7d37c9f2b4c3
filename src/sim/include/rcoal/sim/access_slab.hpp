/**
 * @file
 * Slab storage for in-flight MemoryAccess records and the fixed-capacity
 * ring buffer the hot-path queues are built from.
 *
 * A MemoryAccess fits one cache line (56 bytes with tracing compiled
 * out). Even so, a queue hop — LD/ST queue, crossbar input and
 * output ports, DRAM pending queue, response backlog — moves only a
 * 32-bit slot index: the struct is written once at issue and read again
 * only at the points that actually consume its fields (L2 lookup, DRAM
 * address decode, response finalization).
 *
 * Slot numbers are pure identifiers: nothing may order or key on them
 * (ordering and traces use MemoryAccess::id), so the allocator's LIFO
 * recycling order is unobservable. The slab is never serialized — every
 * snapshot point requires a quiescent machine, where the slab is empty
 * by construction (asserted).
 */

#ifndef RCOAL_SIM_ACCESS_SLAB_HPP
#define RCOAL_SIM_ACCESS_SLAB_HPP

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "rcoal/common/logging.hpp"
#include "rcoal/sim/memory_access.hpp"

namespace rcoal::sim {

/** Sentinel for "no slot". */
inline constexpr std::uint32_t kInvalidSlot = ~std::uint32_t{0};

/**
 * Growable pool of MemoryAccess records addressed by 32-bit slot index.
 *
 * allocate() may grow the underlying storage: references obtained from
 * at() are invalidated by a later allocate(), so never hold one across
 * an allocation (slot indices stay stable and are the durable handle).
 */
class AccessSlab
{
  public:
    explicit AccessSlab(std::size_t initial_capacity = 256)
    {
        storage.reserve(initial_capacity);
    }

    /** Store @p access and return its slot. */
    std::uint32_t
    allocate(MemoryAccess access)
    {
        if (freeList.empty()) {
            RCOAL_ASSERT(storage.size() < kInvalidSlot,
                         "access slab exhausted");
            storage.push_back(std::move(access));
            ++live;
            return static_cast<std::uint32_t>(storage.size() - 1);
        }
        const std::uint32_t slot = freeList.back();
        freeList.pop_back();
        storage[slot] = std::move(access);
        ++live;
        return slot;
    }

    /** The record in @p slot (must be live). */
    MemoryAccess &
    at(std::uint32_t slot)
    {
        RCOAL_ASSERT(slot < storage.size(), "slab slot %u out of range",
                     slot);
        return storage[slot];
    }

    const MemoryAccess &
    at(std::uint32_t slot) const
    {
        RCOAL_ASSERT(slot < storage.size(), "slab slot %u out of range",
                     slot);
        return storage[slot];
    }

    /** Release @p slot for reuse. */
    void
    free(std::uint32_t slot)
    {
        RCOAL_ASSERT(slot < storage.size(), "slab slot %u out of range",
                     slot);
        RCOAL_ASSERT(live > 0, "slab free with no live slots");
        freeList.push_back(slot);
        --live;
    }

    /** Move the record out of @p slot and release the slot. */
    MemoryAccess
    take(std::uint32_t slot)
    {
        MemoryAccess access = std::move(at(slot));
        free(slot);
        return access;
    }

    /** Slots currently allocated. */
    std::size_t liveCount() const { return live; }

    /** True when no slot is allocated (the quiescent-machine state). */
    bool empty() const { return live == 0; }

  private:
    std::vector<MemoryAccess> storage;
    std::vector<std::uint32_t> freeList; ///< LIFO of recycled slots.
    std::size_t live = 0;
};

/**
 * Fixed-capacity FIFO ring buffer.
 *
 * Replaces the std::deque hops of the per-tick queues: contiguous
 * storage (one or two cache lines for the slot-index queues), no
 * allocation after construction, and indexed access for the FR-FCFS
 * scans that walk the DRAM queue every memory cycle. removeAt() erases
 * from the middle by shifting the tail forward, preserving FIFO order
 * and — unlike a tombstone scheme — the exact capacity/backpressure
 * behaviour of the deques it replaces. Queues with no capacity bound
 * (the machine's response backlogs and L2 hit queues) use
 * pushBackGrowing(), which grows the storage to the high-water mark and
 * never shrinks it, so their steady state allocates nothing either.
 */
template <typename T>
class SlotRing
{
  public:
    SlotRing() = default;

    explicit SlotRing(std::size_t capacity) { reset(capacity); }

    /** Discard contents and (re)size to @p capacity elements. */
    void
    reset(std::size_t capacity)
    {
        storage.assign(capacity, T{});
        head = 0;
        count = 0;
    }

    bool empty() const { return count == 0; }
    bool full() const { return count == storage.size(); }
    std::size_t size() const { return count; }
    std::size_t capacity() const { return storage.size(); }

    T &
    front()
    {
        RCOAL_ASSERT(count > 0, "front of empty ring");
        return storage[head];
    }

    const T &
    front() const
    {
        RCOAL_ASSERT(count > 0, "front of empty ring");
        return storage[head];
    }

    /** The @p i-th element counted from the front. */
    T &
    operator[](std::size_t i)
    {
        RCOAL_ASSERT(i < count, "ring index %zu out of range", i);
        return storage[wrap(head + i)];
    }

    const T &
    operator[](std::size_t i) const
    {
        RCOAL_ASSERT(i < count, "ring index %zu out of range", i);
        return storage[wrap(head + i)];
    }

    void
    push_back(T value)
    {
        RCOAL_ASSERT(!full(), "push onto full ring");
        storage[wrap(head + count)] = std::move(value);
        ++count;
    }

    /**
     * push_back() into an unbounded queue: a full ring first doubles
     * its capacity (at least kMinGrowth slots), keeping FIFO order.
     */
    void
    pushBackGrowing(T value)
    {
        if (full())
            grow();
        push_back(std::move(value));
    }

    void
    pop_front()
    {
        RCOAL_ASSERT(count > 0, "pop from empty ring");
        head = wrap(head + 1);
        --count;
    }

    /** Erase the @p i-th element, shifting later elements forward. */
    void
    removeAt(std::size_t i)
    {
        RCOAL_ASSERT(i < count, "ring removeAt %zu out of range", i);
        for (std::size_t k = i; k + 1 < count; ++k)
            storage[wrap(head + k)] = std::move(storage[wrap(head + k + 1)]);
        --count;
    }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

  private:
    static constexpr std::size_t kMinGrowth = 8;

    void
    grow()
    {
        std::vector<T> bigger(std::max(kMinGrowth, 2 * storage.size()));
        for (std::size_t i = 0; i < count; ++i)
            bigger[i] = std::move(storage[wrap(head + i)]);
        storage.swap(bigger);
        head = 0;
    }

    std::size_t
    wrap(std::size_t i) const
    {
        return i >= storage.size() ? i - storage.size() : i;
    }

    std::vector<T> storage;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace rcoal::sim

#endif // RCOAL_SIM_ACCESS_SLAB_HPP
