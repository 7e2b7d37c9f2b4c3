/**
 * @file
 * MshrTable implementation.
 */

#include "rcoal/mem/mshr.hpp"

#include "rcoal/common/logging.hpp"
#include "rcoal/common/state_arena.hpp"

namespace rcoal::mem {

MshrTable::MshrTable(std::size_t entries) : capacity(entries)
{
    RCOAL_ASSERT(entries > 0, "MSHR table needs at least one entry");
}

bool
MshrTable::isPending(Addr block_addr) const
{
    return table.contains(block_addr);
}

bool
MshrTable::canAllocate() const
{
    return table.size() < capacity;
}

void
MshrTable::allocate(Addr block_addr, sim::MemoryAccess access)
{
    RCOAL_ASSERT(!isPending(block_addr),
                 "MSHR double-allocate for block %llx",
                 static_cast<unsigned long long>(block_addr));
    RCOAL_ASSERT(canAllocate(), "MSHR table full");
    table[block_addr].push_back(std::move(access));
}

std::size_t
MshrTable::merge(Addr block_addr, sim::MemoryAccess access)
{
    auto it = table.find(block_addr);
    RCOAL_ASSERT(it != table.end(), "MSHR merge without pending entry");
    it->second.push_back(std::move(access));
    ++mergeCount;
    return it->second.size();
}

std::vector<sim::MemoryAccess>
MshrTable::complete(Addr block_addr)
{
    auto it = table.find(block_addr);
    RCOAL_ASSERT(it != table.end(), "MSHR complete without pending entry");
    std::vector<sim::MemoryAccess> waiting = std::move(it->second);
    table.erase(it);
    return waiting;
}

void
MshrTable::reset()
{
    RCOAL_ASSERT(table.empty(), "MSHR reset with %zu entries in flight",
                 table.size());
    mergeCount = 0;
}

template <typename Arena>
void
MshrTable::transferState(Arena &a)
{
    RCOAL_ASSERT(table.empty(),
                 "MSHR snapshot or restore with %zu entries in flight",
                 table.size());
    a.pod(mergeCount);
}

template void MshrTable::transferState(common::ArenaWriter &);
template void MshrTable::transferState(common::ArenaReader &);

} // namespace rcoal::mem
