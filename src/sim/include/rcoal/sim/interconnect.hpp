/**
 * @file
 * Crossbar interconnect between SMs and memory partitions.
 *
 * Table I: one crossbar per direction at the core clock. The model is a
 * fixed-traversal-latency crossbar with bounded per-port queues, one
 * ejection per output port per cycle, and round-robin arbitration among
 * inputs contending for the same output.
 *
 * Packets live in the machine's shared AccessSlab and travel as 32-bit
 * slot indices: injectSlot() takes one in, popOutputSlot() hands it
 * back out, and no MemoryAccess is ever copied. Arbitration is driven
 * by per-output bitmasks of the inputs whose queue head targets that
 * output, so a tick is a handful of find-first-set steps instead of an
 * inputs x outputs scan.
 */

#ifndef RCOAL_SIM_INTERCONNECT_HPP
#define RCOAL_SIM_INTERCONNECT_HPP

#include <vector>

#include "rcoal/common/logging.hpp"
#include "rcoal/common/state_arena.hpp"
#include "rcoal/sim/access_slab.hpp"
#include "rcoal/sim/memory_access.hpp"

namespace rcoal::trace {
class TraceSink;
} // namespace rcoal::trace

namespace rcoal::sim {

/**
 * One direction of the interconnect (e.g. SMs -> partitions).
 */
class Crossbar
{
  public:
    /**
     * @param num_inputs number of injection ports (at most 64).
     * @param num_outputs number of ejection ports (at most 64).
     * @param latency traversal latency in cycles.
     * @param queue_depth per-port queue capacity.
     * @param slab packet storage the injected slots live in; it must
     *        outlive the crossbar.
     */
    Crossbar(unsigned num_inputs, unsigned num_outputs, unsigned latency,
             std::size_t queue_depth, AccessSlab &slab);

    /** True when input port @p input can take another packet. */
    bool
    canInject(unsigned input) const
    {
        RCOAL_ASSERT(input < numInputs, "input port %u out of range",
                     input);
        return !inputQueues[input].full();
    }

    /**
     * Inject slab slot @p slot at @p now, destined for output port
     * @p output (must canInject(), and the slot must be live).
     */
    void injectSlot(unsigned input, unsigned output, std::uint32_t slot,
                    Cycle now);

    /**
     * Advance one cycle: for every output port with queue space, move at
     * most one ready packet (injected at least `latency` cycles ago)
     * from an input queue, arbitrating round-robin among inputs.
     * Returns a bit per input port, set iff this tick popped that
     * input's queue head (the machine wakes an SM waiting on its full
     * port from it).
     */
    std::uint64_t tick(Cycle now);

    /**
     * Conservative lower bound on the next cycle (>= now + 1) at which a
     * tick() could move a packet: the earliest readyAt among input-queue
     * heads whose destination has queue space. kInvalidCycle when no
     * tick can move anything until an input arrives: an injectSlot()
     * (a new head) or a popOutputSlot() (an output regains space).
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Account for @p cycles ticks skipped while nextEventCycle() lay
     * ahead: a grantless tick only advances the rotating arbitration
     * pointer (with nothing grantable, the grants do not depend on it).
     */
    void
    advanceIdleCycles(Cycle cycles)
    {
        if (cycles != 0) {
            rrPointer = static_cast<unsigned>(
                (rrPointer + cycles % numInputs) % numInputs);
        }
    }

    /** True when output port @p output has a packet to eject. */
    bool
    outputReady(unsigned output) const
    {
        RCOAL_ASSERT(output < numOutputs, "output port %u out of range",
                     output);
        return !outputQueues[output].empty();
    }

    /**
     * Bit per output port, set iff that port has a packet to eject —
     * lets the machine's ejection loops iterate set bits instead of
     * polling every port every cycle.
     */
    std::uint64_t outputsReadyMask() const { return outputsNonEmpty; }

    /** Pop the slab slot at output port @p output (must be outputReady). */
    std::uint32_t popOutputSlot(unsigned output);

    /** True when no packets are anywhere in the crossbar. */
    bool idle() const;

    /** Total packets moved input -> output so far. */
    std::uint64_t packetsTransferred() const { return transferred; }

    /** Packets currently resident in input + output queues. */
    std::size_t queuedPackets() const;

    /** Attach a sink for inject/grant trace events (core domain). */
    void setTraceSink(trace::TraceSink *s) { traceSink = s; }

    /** Return to the freshly-constructed state (must be idle()). */
    void reset();

    /** Serialize at quiescence (must be idle()). */
    void saveState(common::ArenaWriter &w) const;

    /** Restore state saved by saveState() (must be idle()). */
    void restoreState(common::ArenaReader &r);

  private:
    struct Packet
    {
        std::uint32_t slot = kInvalidSlot;
        std::uint32_t dest = 0;
        Cycle readyAt = 0;
    };

    /**
     * Re-derive headTarget membership after input @p in's head popped
     * at @p now; @p freed_output is the popped head's target (the only
     * mask that could hold the input's bit).
     */
    void refreshHead(unsigned in, unsigned freed_output, Cycle now);

    unsigned numInputs;
    unsigned numOutputs;
    unsigned latency;
    std::size_t queueDepth;
    AccessSlab &slab; ///< Where the injected slots live.
    std::vector<SlotRing<Packet>> inputQueues;
    std::vector<SlotRing<std::uint32_t>> outputQueues;
    /**
     * Bit i of headTargets[out] is set iff input i's queue head is
     * destined for output `out`. Maintained at inject (head appears),
     * grant (head pops), and only there — each input contributes exactly
     * its head, so the masks partition the non-empty inputs.
     */
    std::vector<std::uint64_t> headTargets;
    /**
     * readyAt of input i's queue head (valid while the queue is
     * non-empty), kept flat so the bound and the maturity check read
     * one array instead of every input ring.
     */
    std::vector<Cycle> headReadyAt;
    /**
     * Inputs whose queue head had matured (readyAt <= now) when last
     * checked, and inputs whose head had not: together the non-empty
     * inputs. tick() first promotes the pending heads that matured, so
     * arbitration picks each output's winner with one find-first-set.
     */
    std::uint64_t headsReady = 0;
    std::uint64_t headsPending = 0;
    /**
     * Packets resident across all port queues, maintained at
     * inject/eject so queuedPackets()/idle() are O(1) instead of
     * rescanning every queue (asserted against the scan in debug).
     */
    std::size_t resident = 0;
    /// Bit per output port, set iff its queue is non-empty (see
    /// outputsReadyMask()); maintained at grant and ejection.
    std::uint64_t outputsNonEmpty = 0;
    /// Bit per output port, set iff some input's head targets it
    /// (headTargets[out] != 0) — arbitration iterates these set bits
    /// instead of walking every output port every core cycle.
    std::uint64_t headsNonEmpty = 0;
    /// Bit per output port, set iff its queue is full (backpressured);
    /// maintained at grant and ejection.
    std::uint64_t outputsFull = 0;
    unsigned rrPointer = 0; ///< Rotating input priority.
    std::uint64_t transferred = 0;
    trace::TraceSink *traceSink = nullptr;
};

} // namespace rcoal::sim

#endif // RCOAL_SIM_INTERCONNECT_HPP
