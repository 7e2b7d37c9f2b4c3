/**
 * @file
 * Replica implementation.
 */

#include "rcoal/serve/replica.hpp"

#include <algorithm>

#include "rcoal/common/logging.hpp"

namespace rcoal::serve {

const char *
replicaStateName(ReplicaState state)
{
    switch (state) {
      case ReplicaState::Active:
        return "active";
      case ReplicaState::Draining:
        return "draining";
      case ReplicaState::Idle:
        return "idle";
    }
    return "?";
}

Replica::Replica(unsigned index, const sim::GpuConfig &gpu,
                 const ServeConfig &serve,
                 std::span<const std::uint8_t> key, bool active)
    : idx(index),
      lifecycle(active ? ReplicaState::Active : ReplicaState::Idle),
      queue_(serve.queueCapacity),
      batcher_(serve),
      scheduler_(gpu, serve, key)
{
}

void
Replica::activate()
{
    RCOAL_ASSERT(lifecycle != ReplicaState::Active,
                 "replica %u activated twice", idx);
    lifecycle = ReplicaState::Active;
}

void
Replica::startDraining()
{
    RCOAL_ASSERT(lifecycle == ReplicaState::Active,
                 "replica %u drained while %s", idx,
                 replicaStateName(lifecycle));
    lifecycle = ReplicaState::Draining;
}

void
Replica::setIdle()
{
    RCOAL_ASSERT(lifecycle == ReplicaState::Draining,
                 "replica %u idled while %s", idx,
                 replicaStateName(lifecycle));
    RCOAL_ASSERT(drained(), "replica %u idled with work pending", idx);
    lifecycle = ReplicaState::Idle;
}

void
Replica::recordOccupancy(Cycle cycles)
{
    const unsigned busy = scheduler_.busySms();
    acc.queueDepthSum += queue_.size() * cycles;
    acc.maxQueueDepth = std::max(acc.maxQueueDepth, queue_.size());
    acc.busySmSum += busy * cycles;
    acc.maxBusySms = std::max(acc.maxBusySms, busy);
    if (lifecycle == ReplicaState::Active)
        acc.activeCycles += cycles;
}

void
Replica::observeCompletion(const CompletedRequest &done)
{
    const auto latency = static_cast<double>(done.latencyCycles());
    acc.allLatency.observe(latency);
    if (done.isProbe)
        acc.probeLatency.observe(latency);
}

} // namespace rcoal::serve
