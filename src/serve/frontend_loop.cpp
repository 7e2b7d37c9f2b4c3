/**
 * @file
 * The frontend event loop (see frontend_loop.hpp).
 */

#include "rcoal/serve/frontend_loop.hpp"

#include <algorithm>

#include "rcoal/common/logging.hpp"
#include "rcoal/spans/collector.hpp"
#include "rcoal/telemetry/sampler.hpp"
#include "rcoal/trace/sink.hpp"

namespace rcoal::serve {

Cycle
runFrontendLoop(const FrontendLoop &loop)
{
    const auto replicas = loop.replicas;
    ClosedLoopGenerator &probes = *loop.probes;
    spans::SpanCollector *span_collector = loop.spans;
    telemetry::TelemetrySampler *sampler = loop.sampler;
    const bool skipping = replicas.front()->gpu().cycleSkippingEnabled();

    // The loop runs on the machines' own clock: after a warm boot it is
    // already past zero, and keeping now == machine.now() is what lets
    // the skip path pass machine-time targets through unchanged.
    const Cycle start = replicas.front()->gpu().now();
    const Cycle deadline = start + loop.maxSimCycles + 1;
    unsigned probe_completions = 0;
    std::vector<Request> arrivals;
    Cycle now = start;
    while (true) {
        // 1. Retire finished batches on every in-service replica, in
        //    replica order; notify the probe client and the caller.
        for (const auto &replica : replicas) {
            if (!replica->inService())
                continue;
            for (CompletedRequest &done :
                 replica->scheduler().collectCompleted(now)) {
                replica->observeCompletion(done);
                if (done.isProbe) {
                    probes.onCompletion(done.clientId, now);
                    ++probe_completions;
                }
                loop.onCompletion(*replica, std::move(done), now);
            }
            if (replica->state() == ReplicaState::Draining &&
                replica->drained()) {
                replica->setIdle();
            }
        }
        if (probe_completions >= loop.probeSamples)
            break;

        // 2. New arrivals are routed, then pass per-replica admission.
        arrivals.clear();
        probes.poll(now, arrivals);
        loop.background->poll(now, arrivals);
        for (Request &request : arrivals) {
            [[maybe_unused]] const bool is_probe = request.isProbe;
            const int client = request.clientId;
            [[maybe_unused]] const std::uint64_t rid = request.id;
            [[maybe_unused]] const unsigned req_lines = request.lines();
            if (span_collector != nullptr)
                request.spanId = span_collector->openRequest();
            Replica &target = loop.route(request, now);
            RCOAL_ASSERT(target.routable(),
                         "request routed to %s replica %u",
                         replicaStateName(target.state()),
                         target.index());
            [[maybe_unused]] trace::TraceSink *sink =
                target.scheduler().sink();
            const std::uint32_t span_id = request.spanId;
            if (target.queue().tryPush(std::move(request))) {
                RCOAL_TRACE(sink, ServeAdmit, now, rid, req_lines,
                            is_probe ? 1 : 0);
                continue;
            }
            if (span_collector != nullptr)
                span_collector->abandon(span_id);
            RCOAL_TRACE(sink, ServeReject, now, rid, req_lines,
                        is_probe ? 1 : 0);
            // tryPush leaves a rejected request intact. Every rejected
            // closed-loop client must be handed it back or it stays
            // `waiting` forever (stuck-client livelock) — key off
            // clientId, not isProbe, so the invariant holds for any
            // closed-loop traffic, not just the attacker.
            if (client >= 0)
                probes.onRejection(client, std::move(request), now);
        }

        // 3. The caller's control step (the fleet's autoscaler).
        const Cycle control_due =
            loop.control ? loop.control(now) : kInvalidCycle;

        // 4. Launch batches wherever a gang is free; draining replicas
        //    keep launching until their queue is empty.
        for (const auto &replica : replicas) {
            while (replica->inService() && replica->scheduler().gangFree()) {
                std::vector<Request> batch =
                    replica->batcher().formBatch(replica->queue(), now);
                if (batch.empty())
                    break;
                RCOAL_TRACE(replica->scheduler().sink(), ServeBatch, now,
                            batch.size(),
                            [&batch] {
                                unsigned lines = 0;
                                for (const Request &r : batch)
                                    lines += r.lines();
                                return lines;
                            }(),
                            0);
                if (loop.onLaunch)
                    loop.onLaunch(batch);
                replica->scheduler().launchBatch(std::move(batch), now);
            }
        }

        // 5. Occupancy accounting for this cycle, then advance every
        //    machine together — idle replicas too, so a replica's
        //    device state depends only on the cycle count, never on
        //    when the autoscaler last used it. A machine with nothing
        //    to do next cycle skips it instead of stepping (exact by
        //    the skip-vs-step contract), unless a completed launch
        //    awaits step 1 or a memory-clock event lands in it.
        for (const auto &replica : replicas)
            replica->recordOccupancy(1);
        for (const auto &replica : replicas) {
            sim::GpuMachine &machine = replica->gpu();
            if (skipping && machine.nextEventCycle() > now + 1 &&
                !machine.anyCompletedUntaken() &&
                machine.skipTo(now + 2) != 0) {
                continue;
            }
            replica->scheduler().tick();
        }
        ++now;
        if (now >= deadline) {
            fatal("simulation still running after %llu cycles "
                  "(%u/%u probes done) — livelocked workload?",
                  static_cast<unsigned long long>(now - start),
                  probe_completions, loop.probeSamples);
        }
        if (sampler != nullptr && now >= sampler->nextSampleCycle())
            sampler->sampleAt(now);

        // 6. Event-driven sleep: when nothing can happen before the
        //    next machine / arrival / batch / sample / control event,
        //    fast-forward instead of polling every cycle; the skipped
        //    iterations are no-ops except for the occupancy accounting,
        //    applied in bulk. A completed but uncollected kernel pins
        //    stepping: step 1 consumes it at this exact cycle (probe
        //    think times key off it). Machine bounds come first: on
        //    event-dense stretches they pin to now + 1 and the dearer
        //    frontend bounds are never computed.
        if (!skipping)
            continue;
        Cycle target = deadline;
        for (const auto &replica : replicas) {
            target = std::min(target, replica->gpu().nextEventCycle());
            if (target <= now + 1)
                break;
        }
        if (target <= now + 1 ||
            std::any_of(replicas.begin(), replicas.end(),
                        [](const auto &r) {
                            return r->gpu().anyCompletedUntaken();
                        })) {
            continue;
        }
        target = std::min({target, probes.nextEventCycle(),
                           loop.background->nextEventCycle(), control_due});
        for (const auto &replica : replicas) {
            if (replica->inService() && replica->scheduler().gangFree()) {
                target = std::min(target, replica->batcher().earliestLaunch(
                                              replica->queue(), now));
            }
        }
        if (sampler != nullptr)
            target = std::min(target, sampler->nextSampleCycle());
        if (target <= now + 1)
            continue;

        // Every machine lands on ONE cycle: the other machines'
        // memory-clock cutoffs bound the first machine's skip, which
        // also stops at its own cutoff; the rest then follow it.
        Cycle landing = target - 1;
        for (const auto &replica : replicas.subspan(1))
            landing = std::min(landing, replica->gpu().skipStopCycle(target));
        const Cycle skipped = replicas.front()->gpu().skipTo(landing + 1);
        now += skipped;
        for (const auto &replica : replicas) {
            replica->gpu().skipTo(now + 1); // No-op on the first machine.
            RCOAL_ASSERT(replica->gpu().now() == now,
                         "replica %u landed at %llu, the loop at %llu",
                         replica->index(),
                         static_cast<unsigned long long>(
                             replica->gpu().now()),
                         static_cast<unsigned long long>(now));
            replica->recordOccupancy(skipped);
        }
    }
    return now;
}

} // namespace rcoal::serve
