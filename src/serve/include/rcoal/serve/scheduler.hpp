/**
 * @file
 * Concurrent-kernel scheduler over the persistent GpuMachine.
 *
 * The machine's SMs are carved into fixed-size "gangs"
 * (ServeConfig::smsPerKernel SMs each). Each batch becomes one AES
 * kernel launched on the lowest-numbered free gang; several batches are
 * resident at once, contending for the shared interconnect and DRAM —
 * which is exactly the contention the leakage-under-load experiments
 * measure.
 */

#ifndef RCOAL_SERVE_SCHEDULER_HPP
#define RCOAL_SERVE_SCHEDULER_HPP

#include <memory>
#include <span>
#include <vector>

#include "rcoal/serve/config.hpp"
#include "rcoal/serve/metrics.hpp"
#include "rcoal/serve/request.hpp"
#include "rcoal/sim/gpu_machine.hpp"
#include "rcoal/workloads/aes_kernel.hpp"

namespace rcoal::serve {

/**
 * Owns the GpuMachine and the resident batches.
 */
class KernelScheduler
{
  public:
    KernelScheduler(const sim::GpuConfig &gpu, const ServeConfig &serve,
                    std::span<const std::uint8_t> key);

    /** Number of SM gangs (launch slots). */
    unsigned numGangs() const
    {
        return static_cast<unsigned>(gangBusy.size());
    }

    /** True when at least one gang can take a batch. */
    bool gangFree() const;

    /** Gangs currently running a kernel. */
    unsigned busyGangs() const;

    /** SMs currently allocated to resident kernels. */
    unsigned busySms() const { return machine.busySms(); }

    /**
     * Launch @p batch (non-empty) on a free gang at cycle @p now. The
     * requests' plaintext lines are concatenated into one kernel in
     * batch order.
     */
    void launchBatch(std::vector<Request> batch, Cycle now);

    /** Advance the machine one core cycle. */
    void tick() { machine.tick(); }

    /**
     * Retire every finished batch: free its gang and return its
     * requests with per-request ciphertext slices and the batch
     * kernel's timing observables attached.
     */
    std::vector<CompletedRequest> collectCompleted(Cycle now);

    /** Kernels launched so far. */
    std::uint64_t kernelsLaunched() const { return launchedCount; }

    /** Sum of batch sizes (requests) over all launches. */
    std::uint64_t batchedRequests() const { return batchedCount; }

    /** Drain the per-kernel counter snapshots gathered at retire time. */
    std::vector<KernelSnapshot> takeKernelSnapshots()
    {
        return std::move(snapshots);
    }

    /** True while any kernel is resident. */
    bool anyResident() const { return machine.anyResident(); }

    /** The underlying machine (to attach tracing or DRAM checking). */
    sim::GpuMachine &gpu() { return machine; }
    const sim::GpuMachine &gpu() const { return machine; }

    /** Attach a sink for serve launch/complete events (core domain). */
    void setTraceSink(trace::TraceSink *s) { traceSink = s; }
    trace::TraceSink *sink() const { return traceSink; }

    /**
     * Attach a span collector: wires the machine's stamp points and
     * makes the scheduler stamp queue/batch/kernel stages and register
     * each launch's warp->span ownership map. @p span_namespace is the
     * fleet replica index (0 for solo serve).
     */
    void setSpanCollector(spans::SpanCollector *c,
                          std::uint32_t span_namespace = 0);

  private:
    struct ResidentBatch
    {
        sim::GpuMachine::LaunchId id = 0;
        unsigned gang = 0;
        Cycle launchedAt = 0;
        /** Kernel traces must outlive the launch; owned here. */
        std::unique_ptr<workloads::AesGpuKernel> kernel;
        std::vector<Request> requests;
        /** Line offset of each request inside the batch plaintext. */
        std::vector<unsigned> lineOffsets;
        /** Whole-kernel baseline last-round access count. */
        std::uint64_t predictedLastRound = 0;
        /** Same quantity split per warp (see request.hpp). */
        std::vector<std::uint64_t> predictedPerWarp;
    };

    /**
     * Count the last-round coalesced accesses each warp of @p kernel
     * would produce under the baseline single-subwarp partition — the
     * data-determined quantity the leakage auditor correlates against
     * time.  Per warp so retire time can attribute the count to the
     * individual requests whose lines the warp covers.
     */
    std::vector<std::uint64_t>
    predictedBaselineLastRound(const workloads::AesGpuKernel &kernel) const;

    sim::SmRange gangRange(unsigned gang) const;

    sim::GpuMachine machine;
    std::vector<std::uint8_t> secretKey;
    unsigned smsPerKernel;
    std::vector<bool> gangBusy;
    std::vector<ResidentBatch> resident;
    std::vector<KernelSnapshot> snapshots;
    std::uint64_t launchedCount = 0;
    std::uint64_t batchedCount = 0;
    trace::TraceSink *traceSink = nullptr;
    spans::SpanCollector *spanCollector = nullptr;
    std::uint32_t spanNamespace = 0;
};

} // namespace rcoal::serve

#endif // RCOAL_SERVE_SCHEDULER_HPP
