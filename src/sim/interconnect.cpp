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
                   AccessSlab *shared_slab)
    : numInputs(num_inputs),
      numOutputs(num_outputs),
      latency(traversal_latency),
      queueDepth(queue_depth),
      slab(shared_slab),
      headTargets(num_outputs, 0)
{
    RCOAL_ASSERT(num_inputs > 0 && num_outputs > 0 && queue_depth > 0,
                 "crossbar needs ports and queue space");
    RCOAL_ASSERT(num_inputs <= 64 && num_outputs <= 64,
                 "at most 64 ports per side supported");
    if (slab == nullptr) {
        ownSlab = std::make_unique<AccessSlab>(
            num_inputs * queue_depth + num_outputs * queue_depth);
        slab = ownSlab.get();
    }
    inputQueues.resize(num_inputs);
    for (auto &q : inputQueues)
        q.reset(queue_depth);
    outputQueues.resize(num_outputs);
    for (auto &q : outputQueues)
        q.reset(queue_depth);
}

void
Crossbar::refreshHead(unsigned in, unsigned freed_output)
{
    // Each input's bit lives in exactly one mask — its head's target —
    // so clearing the freed output's mask alone keeps the invariant
    // without sweeping every output.
    const std::uint64_t bit = std::uint64_t{1} << in;
    headTargets[freed_output] &= ~bit;
    if (headTargets[freed_output] == 0)
        headsNonEmpty &= ~(std::uint64_t{1} << freed_output);
    if (!inputQueues[in].empty()) {
        const unsigned dest = inputQueues[in].front().dest;
        headTargets[dest] |= bit;
        headsNonEmpty |= std::uint64_t{1} << dest;
    }
}

void
Crossbar::inject(unsigned input, unsigned output, MemoryAccess access,
                 Cycle now)
{
    injectSlot(input, output, slab->allocate(std::move(access)), now);
}

void
Crossbar::injectSlot(unsigned input, unsigned output, std::uint32_t slot,
                     Cycle now)
{
    RCOAL_ASSERT(canInject(input), "inject on full input port %u", input);
    RCOAL_ASSERT(output < numOutputs, "output port %u out of range",
                 output);
    RCOAL_TRACE(traceSink, XbarInject, now, input, output,
                slab->at(slot).id);
    inputQueues[input].push_back(Packet{slot, output, now + latency});
    ++resident;
    if (inputQueues[input].size() == 1) {
        headTargets[output] |= std::uint64_t{1} << input;
        headsNonEmpty |= std::uint64_t{1} << output;
    }
    // The new packet matures at now + latency; nothing it enables can
    // happen sooner, so clamping (rather than clearing) the memo keeps
    // saturated-injection phases from losing the no-grant fast path.
    sleepUntil = std::min(sleepUntil, now + latency);
}

void
Crossbar::tick(Cycle now)
{
    // Memo fast path: a previous grantless tick proved no grant can
    // happen before sleepUntil, so skip the arbitration scan. Only the
    // rotating pointer advances — exactly what a grantless full tick
    // would have done (with zero grantable heads the grant outcome is
    // rrPointer-independent), so the skip is byte-identical.
    if (now < sleepUntil) {
        if (++rrPointer == numInputs)
            rrPointer = 0;
        return;
    }

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
    const std::uint64_t ge_rr = ~std::uint64_t{0} << rrPointer;
    for (std::uint64_t heads = headsNonEmpty; heads != 0;
         heads &= heads - 1) {
        const auto out = static_cast<unsigned>(std::countr_zero(heads));
        const std::uint64_t candidates = headTargets[out];
        if (outputQueues[out].full())
            continue;
        int winner = -1;
        for (std::uint64_t m : {candidates & ge_rr, candidates & ~ge_rr}) {
            while (m != 0) {
                const auto in = static_cast<unsigned>(std::countr_zero(m));
                if (inputQueues[in].front().readyAt <= now) {
                    winner = static_cast<int>(in);
                    break;
                }
                m &= m - 1;
            }
            if (winner >= 0)
                break;
        }
        if (winner < 0)
            continue;
        grant_in[grants] = static_cast<std::uint8_t>(winner);
        grant_out[grants] = static_cast<std::uint8_t>(out);
        ++grants;
    }
    for (unsigned g = 0; g < grants; ++g) {
        const unsigned in = grant_in[g];
        const unsigned out = grant_out[g];
        const std::uint32_t slot = inputQueues[in].front().slot;
        RCOAL_TRACE(traceSink, XbarGrant, now, in, out, slab->at(slot).id);
        outputQueues[out].push_back(slot);
        outputsNonEmpty |= std::uint64_t{1} << out;
        inputQueues[in].pop_front();
        refreshHead(in, out);
        ++transferred;
    }
    if (grants == 0) {
        // Every blocked head stays blocked until its readyAt matures or
        // an ejection clears backpressure (which resets the memo), so
        // the grantless verdict holds until nextEventCycle().
        sleepUntil = nextEventCycle(now);
    }
    // rrPointer stays < numInputs, so the rotation is a compare, not a
    // division — this runs every core cycle for every crossbar.
    if (++rrPointer == numInputs)
        rrPointer = 0;
}

Cycle
Crossbar::nextEventCycle(Cycle now) const
{
    Cycle bound = kInvalidCycle;
    for (std::uint64_t heads = headsNonEmpty; heads != 0;
         heads &= heads - 1) {
        const auto out = static_cast<unsigned>(std::countr_zero(heads));
        if (outputQueues[out].full())
            continue; // Backpressured; unblocking needs an ejection.
        std::uint64_t m = headTargets[out];
        while (m != 0) {
            const auto in = static_cast<unsigned>(std::countr_zero(m));
            m &= m - 1;
            const Cycle candidate =
                std::max(inputQueues[in].front().readyAt, now + 1);
            if (candidate <= now + 1)
                return candidate; // Pinned; no lower bound possible.
            bound = std::min(bound, candidate);
        }
    }
    return bound;
}

void
Crossbar::advanceIdleCycles(Cycle cycles)
{
    rrPointer = static_cast<unsigned>(
        (rrPointer + cycles % numInputs) % numInputs);
}

MemoryAccess
Crossbar::popOutput(unsigned output)
{
    return slab->take(popOutputSlot(output));
}

std::uint32_t
Crossbar::popOutputSlot(unsigned output)
{
    RCOAL_ASSERT(outputReady(output), "popOutput on empty port %u",
                 output);
    const std::uint32_t slot = outputQueues[output].front();
    outputQueues[output].pop_front();
    if (outputQueues[output].empty())
        outputsNonEmpty &= ~(std::uint64_t{1} << output);
    RCOAL_ASSERT(resident > 0, "resident-packet counter underflow");
    --resident;
    sleepUntil = 0; // Ejection may unblock a backpressured head.
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
    sleepUntil = 0;
    outputsNonEmpty = 0; // Idle: every output queue is empty.
    headsNonEmpty = 0;   // Idle: no input has a head.
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
    sleepUntil = 0;      // Derived memo; never part of a snapshot.
    outputsNonEmpty = 0; // Idle: every output queue is empty.
    headsNonEmpty = 0;   // Idle: no input has a head.
}

} // namespace rcoal::sim
