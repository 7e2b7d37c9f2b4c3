/**
 * @file
 * Value-level access to the slot-based engine ports, for tests and
 * microbenchmarks that run a DramPartition or Crossbar on its own.
 *
 * The engine classes only take AccessSlab slot indices in and hand them
 * back out. SlabPorts owns the slab they are constructed with, stores
 * each MemoryAccess on the way in and takes it back on the way out.
 */

#ifndef RCOAL_TESTS_SUPPORT_SLAB_PORTS_HPP
#define RCOAL_TESTS_SUPPORT_SLAB_PORTS_HPP

#include <cstddef>
#include <utility>

#include "rcoal/sim/access_slab.hpp"
#include "rcoal/sim/dram.hpp"
#include "rcoal/sim/interconnect.hpp"

namespace rcoal::test {

struct SlabPorts
{
    explicit SlabPorts(std::size_t initial_capacity = 256)
        : slab(initial_capacity)
    {
    }

    /** Enqueue @p access at @p dram (must canAccept()). */
    void
    enqueue(sim::DramPartition &dram, sim::MemoryAccess access,
            const sim::DramLocation &loc)
    {
        dram.enqueueSlot(slab.allocate(std::move(access)), loc);
    }

    /** Take the oldest completed access (must hasCompleted()). */
    sim::MemoryAccess
    takeCompleted(sim::DramPartition &dram)
    {
        return slab.take(dram.popCompletedSlot());
    }

    /** Inject @p access at @p now (must canInject()). */
    void
    inject(sim::Crossbar &xbar, unsigned input, unsigned output,
           sim::MemoryAccess access, Cycle now)
    {
        xbar.injectSlot(input, output, slab.allocate(std::move(access)),
                        now);
    }

    /** Take the packet at output port @p output (must outputReady()). */
    sim::MemoryAccess
    takeOutput(sim::Crossbar &xbar, unsigned output)
    {
        return slab.take(xbar.popOutputSlot(output));
    }

    /** Storage to construct the partition or crossbar under test with. */
    sim::AccessSlab slab;
};

} // namespace rcoal::test

#endif // RCOAL_TESTS_SUPPORT_SLAB_PORTS_HPP
