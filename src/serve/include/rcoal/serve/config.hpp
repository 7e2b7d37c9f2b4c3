/**
 * @file
 * Configuration of the rcoal::serve frontend: admission control,
 * batching policy and the concurrent-kernel scheduler's SM gangs.
 */

#ifndef RCOAL_SERVE_CONFIG_HPP
#define RCOAL_SERVE_CONFIG_HPP

#include <cstddef>
#include <string>

#include "rcoal/common/types.hpp"
#include "rcoal/sim/config.hpp"

namespace rcoal::serve {

/** How the batcher turns queued requests into kernel launches. */
enum class BatchPolicy
{
    /** Launch as soon as anything is queued, oldest requests first. */
    Fcfs,

    /**
     * Wait until maxBatchRequests are queued or the oldest request has
     * aged past batchTimeoutCycles; then launch oldest-first. Trades
     * latency for larger (better-utilized) kernels.
     */
    BatchFill,

    /**
     * Size-aware shortest-job-first: launch as soon as anything is
     * queued, but pick the smallest requests (fewest plaintext lines,
     * ties broken by age) so small jobs are not stuck behind large
     * ones.
     */
    Sjf,
};

/** Short display name ("FCFS", "BatchFill", "SJF"). */
const char *batchPolicyName(BatchPolicy policy);

/**
 * Serving-layer knobs. The GPU itself is configured by sim::GpuConfig;
 * this struct only shapes the traffic in front of it.
 */
struct ServeConfig
{
    /**
     * Admission-control bound: requests arriving while the queue holds
     * this many are rejected (the client may retry). Keeps the service
     * stable under overload instead of growing latency without bound.
     */
    std::size_t queueCapacity = 64;

    BatchPolicy batchPolicy = BatchPolicy::Fcfs;

    /** Most requests merged into one kernel launch. */
    unsigned maxBatchRequests = 4;

    /** BatchFill's age deadline for a partially filled batch. */
    Cycle batchTimeoutCycles = 3000;

    /**
     * SMs per kernel gang. The scheduler carves the GPU into
     * numSms / smsPerKernel disjoint gangs and co-schedules one kernel
     * per gang; co-resident kernels share the interconnect and DRAM
     * partitions, so cross-tenant contention is simulated, not faked.
     */
    unsigned smsPerKernel = 5;

    /**
     * Hard wall for one serve or fleet simulation, in cycles after the
     * loop starts (deadlock/livelock guard).
     */
    Cycle maxSimCycles = 500'000'000;

    /**
     * Warm boot: AES launches retired on the machine before the serve
     * loop starts (0 = historical cold boot). Their randomness derives
     * from warmBootSeed, never the scenario GPU seed, so the booted
     * state is one shared prefix across a seed sweep — callers can
     * snapshot it once and pass the fork to every scenario
     * (EncryptionServer::warmBootSnapshot / run(..., warm_boot)).
     */
    unsigned warmBootKernels = 0;

    /** Root of the warm-boot launch/plaintext randomness. */
    std::uint64_t warmBootSeed = 0x5eed'b007;

    /** Number of kernel gangs this config yields on @p gpu. */
    unsigned numGangs(const sim::GpuConfig &gpu) const
    {
        return smsPerKernel == 0 ? 0 : gpu.numSms / smsPerKernel;
    }

    /** Panics (fatal) on inconsistent parameters. */
    void validate(const sim::GpuConfig &gpu) const;

    /** One-line human-readable summary. */
    std::string describe(const sim::GpuConfig &gpu) const;
};

} // namespace rcoal::serve

#endif // RCOAL_SERVE_CONFIG_HPP
