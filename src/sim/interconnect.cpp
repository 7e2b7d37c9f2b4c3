/**
 * @file
 * Crossbar implementation.
 */

#include "rcoal/sim/interconnect.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>

#include "rcoal/common/logging.hpp"
#include "rcoal/trace/sink.hpp"

namespace rcoal::sim {

Crossbar::Crossbar(unsigned num_inputs, unsigned num_outputs,
                   unsigned traversal_latency, std::size_t queue_depth,
                   AccessSlab &shared_slab)
    : numInputs(num_inputs),
      numOutputs(num_outputs),
      latency(traversal_latency),
      queueDepth(queue_depth),
      slab(shared_slab),
      headTargets(num_outputs, 0),
      headReadyAt(num_inputs, 0)
{
    RCOAL_ASSERT(num_inputs > 0 && num_outputs > 0 && queue_depth > 0,
                 "crossbar needs ports and queue space");
    RCOAL_ASSERT(num_inputs <= 64 && num_outputs <= 64,
                 "at most 64 ports per side supported");
    inputQueues.resize(num_inputs);
    for (auto &q : inputQueues)
        q.reset(queue_depth);
    outputQueues.resize(num_outputs);
    for (auto &q : outputQueues)
        q.reset(queue_depth);
}

void
Crossbar::refreshHead(unsigned in, unsigned freed_output, Cycle now)
{
    // Each input's bit lives in exactly one mask — its head's target —
    // so clearing the freed output's mask alone keeps the invariant
    // without sweeping every output.
    const std::uint64_t bit = std::uint64_t{1} << in;
    headTargets[freed_output] &= ~bit;
    if (headTargets[freed_output] == 0)
        headsNonEmpty &= ~(std::uint64_t{1} << freed_output);
    headsReady &= ~bit;
    if (!inputQueues[in].empty()) {
        const Packet &head = inputQueues[in].front();
        headTargets[head.dest] |= bit;
        headsNonEmpty |= std::uint64_t{1} << head.dest;
        headReadyAt[in] = head.readyAt;
        if (head.readyAt <= now)
            headsReady |= bit;
        else
            headsPending |= bit;
    }
}

void
Crossbar::injectSlot(unsigned input, unsigned output, std::uint32_t slot,
                     Cycle now)
{
    RCOAL_ASSERT(canInject(input), "inject on full input port %u", input);
    RCOAL_ASSERT(output < numOutputs, "output port %u out of range",
                 output);
    RCOAL_TRACE(traceSink, XbarInject, now, input, output,
                slab.at(slot).id);
    inputQueues[input].push_back(Packet{slot, output, now + latency});
    ++resident;
    if (inputQueues[input].size() == 1) {
        headTargets[output] |= std::uint64_t{1} << input;
        headsNonEmpty |= std::uint64_t{1} << output;
        headReadyAt[input] = now + latency;
        headsPending |= std::uint64_t{1} << input;
    }
}

std::uint64_t
Crossbar::tick(Cycle now)
{
    // Output-major arbitration from the pre-tick head masks. Each input
    // contributes exactly its queue head, and a head targets exactly one
    // output, so the per-output candidate sets partition the non-empty
    // inputs: the winner for an output with queue space is the first
    // input in rotation order whose ready head targets it — the same
    // grants the historical input-major single-pass scan produced, found
    // by find-first-set over the masks instead of walking every port.
    // Grants are collected before any is applied so a popped input's
    // next packet cannot be considered in the same cycle.
    // Deliberately uninitialized: entries [0, grants) are written before
    // they are read, and zero-filling 128 bytes every core cycle showed
    // up in profiles.
    std::array<std::uint8_t, 64> grant_in;
    std::array<std::uint8_t, 64> grant_out;
    unsigned grants = 0;
    for (std::uint64_t pending = headsPending; pending != 0;
         pending &= pending - 1) {
        const auto in = static_cast<unsigned>(std::countr_zero(pending));
        if (headReadyAt[in] <= now) {
            headsPending &= ~(std::uint64_t{1} << in);
            headsReady |= std::uint64_t{1} << in;
        }
    }
    const std::uint64_t ge_rr = ~std::uint64_t{0} << rrPointer;
    for (std::uint64_t heads = headsNonEmpty & ~outputsFull; heads != 0;
         heads &= heads - 1) {
        const auto out = static_cast<unsigned>(std::countr_zero(heads));
        const std::uint64_t ready = headTargets[out] & headsReady;
        if (ready == 0)
            continue;
        const std::uint64_t from_rr = ready & ge_rr;
        grant_in[grants] = static_cast<std::uint8_t>(
            std::countr_zero(from_rr != 0 ? from_rr : ready));
        grant_out[grants] = static_cast<std::uint8_t>(out);
        ++grants;
    }
    std::uint64_t popped = 0;
    for (unsigned g = 0; g < grants; ++g) {
        const unsigned in = grant_in[g];
        const unsigned out = grant_out[g];
        popped |= std::uint64_t{1} << in;
        const std::uint32_t slot = inputQueues[in].front().slot;
        RCOAL_TRACE(traceSink, XbarGrant, now, in, out, slab.at(slot).id);
        outputQueues[out].push_back(slot);
        outputsNonEmpty |= std::uint64_t{1} << out;
        if (outputQueues[out].full())
            outputsFull |= std::uint64_t{1} << out;
        inputQueues[in].pop_front();
        refreshHead(in, out, now);
        ++transferred;
    }
    // rrPointer stays < numInputs, so the rotation is a compare, not a
    // division — this runs every core cycle for every crossbar.
    if (++rrPointer == numInputs)
        rrPointer = 0;
    return popped;
}

Cycle
Crossbar::nextEventCycle(Cycle now) const
{
    Cycle bound = kInvalidCycle;
    // A backpressured output unblocks only through an ejection.
    for (std::uint64_t heads = headsNonEmpty & ~outputsFull; heads != 0;
         heads &= heads - 1) {
        const auto out = static_cast<unsigned>(std::countr_zero(heads));
        std::uint64_t m = headTargets[out];
        while (m != 0) {
            const auto in = static_cast<unsigned>(std::countr_zero(m));
            m &= m - 1;
            const Cycle candidate = std::max(headReadyAt[in], now + 1);
            if (candidate <= now + 1)
                return candidate; // Pinned; no lower bound possible.
            bound = std::min(bound, candidate);
        }
    }
    return bound;
}

std::uint32_t
Crossbar::popOutputSlot(unsigned output)
{
    RCOAL_ASSERT(outputReady(output), "popOutputSlot on empty port %u",
                 output);
    const std::uint32_t slot = outputQueues[output].front();
    outputQueues[output].pop_front();
    outputsFull &= ~(std::uint64_t{1} << output);
    if (outputQueues[output].empty())
        outputsNonEmpty &= ~(std::uint64_t{1} << output);
    RCOAL_ASSERT(resident > 0, "resident-packet counter underflow");
    --resident;
    return slot;
}

std::size_t
Crossbar::queuedPackets() const
{
#ifndef NDEBUG
    std::size_t queued = 0;
    for (const auto &q : inputQueues)
        queued += q.size();
    for (const auto &q : outputQueues)
        queued += q.size();
    assert(queued == resident && "resident-packet counter drifted");
#endif
    return resident;
}

bool
Crossbar::idle() const
{
    return queuedPackets() == 0;
}

void
Crossbar::reset()
{
    RCOAL_ASSERT(idle(), "crossbar reset with packets in flight");
    rrPointer = 0;
    transferred = 0;
    outputsNonEmpty = 0; // Idle: every output queue is empty.
    headsNonEmpty = 0;   // Idle: no input has a head.
    outputsFull = 0;
    headsReady = 0;
    headsPending = 0;
}

void
Crossbar::saveState(common::ArenaWriter &w) const
{
    RCOAL_ASSERT(idle(), "crossbar snapshot with packets in flight");
    w.pod(rrPointer);
    w.pod(transferred);
}

void
Crossbar::restoreState(common::ArenaReader &r)
{
    RCOAL_ASSERT(idle(), "crossbar restore with packets in flight");
    r.pod(rrPointer);
    r.pod(transferred);
    outputsNonEmpty = 0; // Idle: every output queue is empty.
    headsNonEmpty = 0;   // Idle: no input has a head.
    outputsFull = 0;
    headsReady = 0;
    headsPending = 0;
}

} // namespace rcoal::sim
