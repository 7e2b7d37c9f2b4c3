/**
 * @file
 * PendingRequestTable implementation.
 */

#include "rcoal/core/pending_request_table.hpp"

#include <algorithm>
#include <bit>

#include "rcoal/common/logging.hpp"

namespace rcoal::core {

PendingRequestTable::PendingRequestTable(std::size_t entries)
    : table(entries), sidNext(entries, kNone), sidPrev(entries, kNone)
{
    RCOAL_ASSERT(entries > 0, "PRT must have at least one entry");
    RCOAL_ASSERT(entries < kNone, "PRT too large for 32-bit links");
    freeList.reserve(entries);
    for (std::size_t i = entries; i-- > 0;)
        freeList.push_back(i);
}

std::optional<std::size_t>
PendingRequestTable::allocate(ThreadId tid, Addr base_addr,
                              std::uint32_t offset, std::uint32_t size,
                              SubwarpId sid)
{
    if (freeList.empty())
        return std::nullopt;
    const std::size_t i = freeList.back();
    freeList.pop_back();
    RCOAL_ASSERT(!table[i].valid, "free list returned a live entry");
    table[i] = {true, tid, base_addr, offset, size, sid, false};
    ++used;
    // Link at the head of the sid's intrusive list (O(1)).
    if (sid >= sidHead.size())
        sidHead.resize(static_cast<std::size_t>(sid) + 1, kNone);
    const std::uint32_t head = sidHead[sid];
    sidNext[i] = head;
    sidPrev[i] = kNone;
    if (head != kNone)
        sidPrev[head] = static_cast<std::uint32_t>(i);
    sidHead[sid] = static_cast<std::uint32_t>(i);
    return i;
}

void
PendingRequestTable::markPending(std::size_t index)
{
    RCOAL_ASSERT(index < table.size() && table[index].valid,
                 "markPending on invalid entry %zu", index);
    table[index].pending = true;
}

void
PendingRequestTable::unlinkFromSid(std::size_t index)
{
    const std::uint32_t next = sidNext[index];
    const std::uint32_t prev = sidPrev[index];
    if (prev != kNone)
        sidNext[prev] = next;
    else
        sidHead[table[index].sid] = next;
    if (next != kNone)
        sidPrev[next] = prev;
    sidNext[index] = kNone;
    sidPrev[index] = kNone;
}

void
PendingRequestTable::release(std::size_t index)
{
    RCOAL_ASSERT(index < table.size() && table[index].valid,
                 "release of invalid entry %zu", index);
    unlinkFromSid(index);
    table[index] = PrtEntry{};
    freeList.push_back(index);
    --used;
}

const PrtEntry &
PendingRequestTable::entry(std::size_t index) const
{
    RCOAL_ASSERT(index < table.size() && table[index].valid,
                 "access to invalid entry %zu", index);
    return table[index];
}

std::vector<std::size_t>
PendingRequestTable::entriesOfSubwarp(SubwarpId sid) const
{
    std::vector<std::size_t> out;
    forEachOfSubwarp(sid, [&out](std::size_t i, const PrtEntry &) {
        out.push_back(i);
    });
    // The list is most-recent-first; callers expect table order.
    std::sort(out.begin(), out.end());
    return out;
}

void
PendingRequestTable::reset()
{
    RCOAL_ASSERT(used == 0, "PRT reset with %zu live entries", used);
    table.assign(table.size(), PrtEntry{});
    freeList.clear();
    for (std::size_t i = table.size(); i-- > 0;)
        freeList.push_back(i);
    sidHead.clear();
    sidNext.assign(table.size(), kNone);
    sidPrev.assign(table.size(), kNone);
}

std::size_t
PendingRequestTable::sidFieldBits(unsigned warp_size)
{
    // ceil(log2(warp_size)) bits per thread to name up to warp_size
    // subwarps (5 bits for a 32-thread warp, Section IV-D).
    return static_cast<std::size_t>(
        std::bit_width(static_cast<unsigned>(warp_size - 1)));
}

} // namespace rcoal::core
