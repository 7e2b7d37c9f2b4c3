/**
 * @file
 * Coalescer implementation.
 */

#include "rcoal/core/coalescer.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <tuple>

#include "rcoal/common/logging.hpp"

namespace rcoal::core {

namespace {

/** Fast-path scratch bounds; larger inputs take coalesceSlow(). */
constexpr std::size_t kMaxAccesses = 128;
constexpr std::size_t kMaxLanes = 256;

/**
 * An access key packs the sid above the block index, so keys are equal
 * exactly when (sid, block) are, and ascending keys order accesses by
 * sid, then block address. Block indices must fit below the sid bits.
 */
constexpr unsigned kSidShift = 58;
static_assert(SubwarpPartition::kMaxThreads <= 1u << (64 - kSidShift),
              "every sid must fit above the block index");

/**
 * The distinct access keys of one warp instruction in first-seen order,
 * deduplicated through a small open-addressed table (load factor at
 * most one half).
 */
class AccessKeys
{
  public:
    AccessKeys() { slots.fill(kEmpty); }

    /**
     * First-seen index of @p key, inserting it if new; kMaxAccesses
     * when it is new and the scratch is full.
     */
    std::size_t
    indexOf(std::uint64_t key)
    {
        std::size_t h = (key * 0x9e3779b97f4a7c15ull) >> (64 - kSlotBits);
        for (;; h = (h + 1) & (kSlots - 1)) {
            const std::uint8_t i = slots[h];
            if (i == kEmpty) {
                if (n == kMaxAccesses)
                    return kMaxAccesses;
                const std::uint32_t added = n++;
                slots[h] = static_cast<std::uint8_t>(added);
                keys[added] = key;
                return added;
            }
            if (keys[i] == key)
                return i;
        }
    }

    std::size_t size() const { return n; }
    std::uint64_t operator[](std::size_t i) const { return keys[i]; }

  private:
    static constexpr unsigned kSlotBits = 8;
    static constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
    static constexpr std::uint8_t kEmpty = 0xff;
    static_assert(kSlots >= 2 * kMaxAccesses && kMaxAccesses <= kEmpty);

    std::array<std::uint64_t, kMaxAccesses> keys;
    std::array<std::uint8_t, kSlots> slots;
    std::uint32_t n = 0; ///< Not size_t: stores to keys cannot alias it.
};

/**
 * Calls @p visit(key, tid) for every block each active lane touches, in
 * request order (a request crossing a block boundary touches several).
 * Stops and returns false as soon as @p visit does, or when a block
 * index is too wide for the key.
 */
template <typename Visit>
bool
forEachAccessKey(std::span<const LaneRequest> requests,
                 const SubwarpPartition &partition, unsigned block_shift,
                 Visit &&visit)
{
    const std::span<const SubwarpId> sid_of = partition.sidOfThread();
    for (const LaneRequest &req : requests) {
        if (!req.active)
            continue;
        RCOAL_ASSERT(req.tid < sid_of.size(), "tid %u out of range",
                     req.tid);
        RCOAL_ASSERT(req.size > 0, "zero-size request from tid %u",
                     req.tid);
        const std::uint64_t sid = std::uint64_t{sid_of[req.tid]}
                                  << kSidShift;
        const Addr first = req.addr >> block_shift;
        const Addr last = (req.addr + req.size - 1) >> block_shift;
        if (last >> kSidShift != 0)
            return false;
        for (Addr block = first; block <= last; ++block) {
            if (!visit(sid | block, req.tid))
                return false;
        }
    }
    return true;
}

} // namespace

Coalescer::Coalescer(std::uint32_t block_size)
    : blockBytes(block_size),
      blockShift(static_cast<unsigned>(std::countr_zero(block_size)))
{
    RCOAL_ASSERT(block_size > 0 && (block_size & (block_size - 1)) == 0,
                 "block size must be a power of two, got %u", block_size);
}

std::vector<CoalescedAccess>
Coalescer::coalesce(std::span<const LaneRequest> requests,
                    const SubwarpPartition &partition) const
{
    std::vector<CoalescedAccess> out;
    coalesceInto(requests, partition, out);
    return out;
}

void
Coalescer::coalesceInto(std::span<const LaneRequest> requests,
                        const SubwarpPartition &partition,
                        std::vector<CoalescedAccess> &out) const
{
    // Hot path: dedup packed keys through a hash table on the stack,
    // insertion-sort them (tens of keys at most in practice), and
    // write each output element once in its final position. Fully
    // divergent warps under saturation hit the worst case (one access
    // per lane) millions of times per run.
    AccessKeys keys;
    std::array<std::uint8_t, kMaxLanes> laneAcc;
    std::array<ThreadId, kMaxLanes> laneTid;
    std::size_t lanes = 0;
    const bool fits = forEachAccessKey(
        requests, partition, blockShift,
        [&](std::uint64_t key, ThreadId tid) {
            const std::size_t i = keys.indexOf(key);
            if (i == kMaxAccesses || lanes == kMaxLanes)
                return false;
            laneAcc[lanes] = static_cast<std::uint8_t>(i);
            laneTid[lanes] = tid;
            ++lanes;
            return true;
        });
    if (!fits) {
        coalesceSlow(requests, partition, out);
        return;
    }
    // Hardware scans the PRT one subwarp at a time: emit grouped by sid,
    // then by block address (also keeps output deterministic). Keys are
    // unique, so the order is total.
    const std::size_t n = keys.size();
    std::array<std::uint64_t, kMaxAccesses> sorted;
    std::array<std::uint8_t, kMaxAccesses> firstSeen;
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t k = i;
        for (; k > 0 && sorted[k - 1] > keys[i]; --k) {
            sorted[k] = sorted[k - 1];
            firstSeen[k] = firstSeen[k - 1];
        }
        sorted[k] = keys[i];
        firstSeen[k] = static_cast<std::uint8_t>(i);
    }
    std::array<std::uint8_t, kMaxAccesses> rank;
    out.clear();
    out.reserve(n);
    constexpr std::uint64_t kBlockMask = (std::uint64_t{1} << kSidShift) - 1;
    for (std::size_t k = 0; k < n; ++k) {
        rank[firstSeen[k]] = static_cast<std::uint8_t>(k);
        out.emplace_back(Addr{(sorted[k] & kBlockMask) << blockShift},
                         static_cast<SubwarpId>(sorted[k] >> kSidShift));
    }
    // Lane entries were recorded in request order, so per-access lane
    // lists come out in the same order the struct-scanning path built.
    for (std::size_t j = 0; j < lanes; ++j)
        out[rank[laneAcc[j]]].threads.push_back(laneTid[j]);
}

void
Coalescer::coalesceSlow(std::span<const LaneRequest> requests,
                        const SubwarpPartition &partition,
                        std::vector<CoalescedAccess> &out) const
{
    // Unbounded fallback for inputs that overflow coalesceInto()'s
    // inline scratch (many-block requests in stress tests); emits the
    // identical access list.
    out.clear();
    out.reserve(requests.size());
    for (const LaneRequest &req : requests) {
        if (!req.active)
            continue;
        const SubwarpId sid = partition.subwarpOf(req.tid);
        RCOAL_ASSERT(req.size > 0, "zero-size request from tid %u",
                     req.tid);
        const Addr first = blockAlign(req.addr);
        const Addr last = blockAlign(req.addr + req.size - 1);
        for (Addr block = first; block <= last; block += blockBytes) {
            CoalescedAccess *slot = nullptr;
            for (auto &existing : out) {
                if (existing.sid == sid && existing.blockAddr == block) {
                    slot = &existing;
                    break;
                }
            }
            if (slot == nullptr) {
                out.push_back(CoalescedAccess{block, sid, {}});
                slot = &out.back();
            }
            slot->threads.push_back(req.tid);
        }
    }
    std::sort(out.begin(), out.end(),
              [](const CoalescedAccess &a, const CoalescedAccess &b) {
                  return std::tie(a.sid, a.blockAddr) <
                         std::tie(b.sid, b.blockAddr);
              });
}

unsigned
Coalescer::countAccesses(std::span<const LaneRequest> requests,
                         const SubwarpPartition &partition) const
{
    AccessKeys keys;
    if (forEachAccessKey(requests, partition, blockShift,
                         [&](std::uint64_t key, ThreadId) {
                             return keys.indexOf(key) != kMaxAccesses;
                         })) {
        return static_cast<unsigned>(keys.size());
    }
    std::vector<CoalescedAccess> out;
    coalesceSlow(requests, partition, out);
    return static_cast<unsigned>(out.size());
}

} // namespace rcoal::core
