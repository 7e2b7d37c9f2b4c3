/**
 * @file
 * One serving replica: a GpuMachine wrapped by the admission queue,
 * batcher and kernel scheduler, plus the per-replica accounting the
 * serve and fleet reports read back.
 *
 * A replica owns no loop. runFrontendLoop() (frontend_loop.hpp) drives
 * every replica it is handed on one shared virtual clock: the
 * EncryptionServer hands it one replica, fleet::FleetServer one per
 * provisioned device. The lifecycle states only matter to the fleet's
 * autoscaler; a solo server's replica stays Active throughout.
 */

#ifndef RCOAL_SERVE_REPLICA_HPP
#define RCOAL_SERVE_REPLICA_HPP

#include <span>

#include "rcoal/serve/batcher.hpp"
#include "rcoal/serve/metrics.hpp"
#include "rcoal/serve/request_queue.hpp"
#include "rcoal/serve/scheduler.hpp"

namespace rcoal::serve {

/** Lifecycle of a replica under the fleet autoscaler. */
enum class ReplicaState
{
    Active,   ///< Routable: receives new requests.
    Draining, ///< Not routable; finishes its queue and resident work.
    Idle,     ///< Empty and unplugged; ticks but serves nothing.
};

/** Short display name ("active", "draining", "idle"). */
const char *replicaStateName(ReplicaState state);

/**
 * What the loop accounted on one replica. Occupancy sums are per core
 * cycle (a skipped window counts once per cycle it spans), so
 * dividing by the run's cycle count gives time averages.
 */
struct ReplicaTotals
{
    StreamingLatency allLatency;   ///< Its count() is the completions.
    StreamingLatency probeLatency; ///< Likewise for probes.
    std::uint64_t queueDepthSum = 0;
    std::size_t maxQueueDepth = 0;
    std::uint64_t busySmSum = 0;
    unsigned maxBusySms = 0;
    Cycle activeCycles = 0; ///< Cycles spent Active.
};

class Replica
{
  public:
    /**
     * @param index position in the deployment (stable identity; the
     *        span-launch namespace in a fleet).
     * @param gpu the device config, seeded as the caller wants this
     *        device to draw (the fleet derives one seed per replica).
     * @param serve frontend knobs.
     * @param key the service's secret AES key.
     * @param active start Active (routable) or Idle (warm standby the
     *        autoscaler can grow into).
     */
    Replica(unsigned index, const sim::GpuConfig &gpu,
            const ServeConfig &serve, std::span<const std::uint8_t> key,
            bool active = true);

    unsigned index() const { return idx; }
    ReplicaState state() const { return lifecycle; }

    /** True when the router may send new requests here. */
    bool routable() const { return lifecycle == ReplicaState::Active; }

    /** True when the replica participates in serving at all. */
    bool inService() const { return lifecycle != ReplicaState::Idle; }

    /** Queue empty and no kernel resident — safe to go idle. */
    bool drained() const
    {
        return queue_.empty() && !scheduler_.anyResident();
    }

    void activate();
    void startDraining();
    void setIdle();

    RequestQueue &queue() { return queue_; }
    const RequestQueue &queue() const { return queue_; }
    Batcher &batcher() { return batcher_; }
    KernelScheduler &scheduler() { return scheduler_; }
    const KernelScheduler &scheduler() const { return scheduler_; }
    sim::GpuMachine &gpu() { return scheduler_.gpu(); }

    /** Fold @p cycles cycles of the current occupancy into the sums
     * (1 for a stepped cycle, the window length for a skipped one). */
    void recordOccupancy(Cycle cycles);

    /** Account one completed request served by this replica. */
    void observeCompletion(const CompletedRequest &done);

    const ReplicaTotals &totals() const { return acc; }

  private:
    unsigned idx;
    ReplicaState lifecycle = ReplicaState::Active;
    RequestQueue queue_;
    Batcher batcher_;
    KernelScheduler scheduler_;
    ReplicaTotals acc;
};

} // namespace rcoal::serve

#endif // RCOAL_SERVE_REPLICA_HPP
