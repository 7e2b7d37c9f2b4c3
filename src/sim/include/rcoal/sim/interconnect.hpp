/**
 * @file
 * Crossbar interconnect between SMs and memory partitions.
 *
 * Table I: one crossbar per direction at the core clock. The model is a
 * fixed-traversal-latency crossbar with bounded per-port queues, one
 * ejection per output port per cycle, and round-robin arbitration among
 * inputs contending for the same output.
 *
 * Packets live in an AccessSlab and travel as 32-bit slot indices; the
 * value-based inject()/popOutput() API copies through a fallback slab so
 * standalone users (tests, microbenches) see the historical behaviour
 * unchanged. Arbitration is driven by per-output bitmasks of the inputs
 * whose queue head targets that output, so a tick is a handful of
 * find-first-set steps instead of an inputs x outputs scan.
 */

#ifndef RCOAL_SIM_INTERCONNECT_HPP
#define RCOAL_SIM_INTERCONNECT_HPP

#include <memory>
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
     * @param slab shared packet storage; when null the crossbar owns a
     *        private slab (standalone/test use via the value API).
     */
    Crossbar(unsigned num_inputs, unsigned num_outputs, unsigned latency,
             std::size_t queue_depth, AccessSlab *slab = nullptr);

    /** True when input port @p input can take another packet. */
    bool
    canInject(unsigned input) const
    {
        RCOAL_ASSERT(input < numInputs, "input port %u out of range",
                     input);
        return !inputQueues[input].full();
    }

    /** Inject a packet at @p now destined for output port @p output. */
    void inject(unsigned input, unsigned output, MemoryAccess access,
                Cycle now);

    /** Inject slab slot @p slot (must be live in the shared slab). */
    void injectSlot(unsigned input, unsigned output, std::uint32_t slot,
                    Cycle now);

    /**
     * Advance one cycle: for every output port with queue space, move at
     * most one ready packet (injected at least `latency` cycles ago)
     * from an input queue, arbitrating round-robin among inputs.
     */
    void tick(Cycle now);

    /**
     * Conservative lower bound on the next cycle (>= now + 1) at which a
     * tick() could move a packet: the earliest readyAt among input-queue
     * heads whose destination has queue space. kInvalidCycle when no
     * tick can ever move anything from the current state. Ejections and
     * injections are driven by the machine/SMs, so they need no bound
     * here; only the state `tick` itself mutates counts.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Account for @p cycles skipped ticks during which (provably) no
     * packet could move: only the rotating arbitration pointer advances.
     */
    void advanceIdleCycles(Cycle cycles);

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

    /** Pop the packet at output port @p output (must be outputReady). */
    MemoryAccess popOutput(unsigned output);

    /** Pop the slab slot at output port @p output (must be outputReady). */
    std::uint32_t popOutputSlot(unsigned output);

    /** True when no packets are anywhere in the crossbar. */
    bool idle() const;

    /** Total packets moved input -> output so far. */
    std::uint64_t packetsTransferred() const { return transferred; }

    /** Packets currently resident in input + output queues. */
    std::size_t queuedPackets() const;

    /** Attach a sink for inject/grant trace events (core domain). */
    void setTraceSink(trace::TraceSink *s)
    {
        traceSink = s;
        sleepUntil = 0;
    }

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
     * Re-derive headTarget membership after input @p in's head popped;
     * @p freed_output is the popped head's target (the only mask that
     * could hold the input's bit).
     */
    void refreshHead(unsigned in, unsigned freed_output);

    unsigned numInputs;
    unsigned numOutputs;
    unsigned latency;
    std::size_t queueDepth;
    AccessSlab *slab;                   ///< Shared or ownSlab.get().
    std::unique_ptr<AccessSlab> ownSlab; ///< Fallback for the value API.
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
    unsigned rrPointer = 0; ///< Rotating input priority.
    std::uint64_t transferred = 0;
    /**
     * Memo: tick() cannot grant before this cycle (it still advances
     * rrPointer, exactly as a grantless tick would). Set when a tick
     * grants nothing, to that tick's nextEventCycle(); invalidated by
     * ejections (backpressure may clear) and clamped by injections (a
     * new packet matures latency cycles later). Purely derived state —
     * never serialized, reset to 0 on restore.
     */
    Cycle sleepUntil = 0;
    trace::TraceSink *traceSink = nullptr;
};

} // namespace rcoal::sim

#endif // RCOAL_SIM_INTERCONNECT_HPP
