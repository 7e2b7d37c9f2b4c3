/**
 * @file
 * KernelScheduler implementation.
 */

#include "rcoal/serve/scheduler.hpp"

#include <algorithm>

#include "rcoal/common/logging.hpp"
#include "rcoal/core/coalescer.hpp"
#include "rcoal/core/subwarp.hpp"
#include "rcoal/spans/collector.hpp"

namespace rcoal::serve {

KernelScheduler::KernelScheduler(const sim::GpuConfig &gpu,
                                 const ServeConfig &serve,
                                 std::span<const std::uint8_t> key)
    : machine(gpu),
      secretKey(key.begin(), key.end()),
      smsPerKernel(serve.smsPerKernel),
      gangBusy(serve.numGangs(gpu), false)
{
    serve.validate(gpu);
    if (secretKey.size() != 16 && secretKey.size() != 24 &&
        secretKey.size() != 32) {
        fatal("AES key must be 16, 24 or 32 bytes, got %zu",
              secretKey.size());
    }
}

sim::SmRange
KernelScheduler::gangRange(unsigned gang) const
{
    return sim::SmRange{gang * smsPerKernel, smsPerKernel};
}

void
KernelScheduler::setSpanCollector(spans::SpanCollector *c,
                                  std::uint32_t span_namespace)
{
    spanCollector = c;
    spanNamespace = span_namespace;
    machine.setSpanCollector(c, span_namespace);
}

std::vector<std::uint64_t>
KernelScheduler::predictedBaselineLastRound(
    const workloads::AesGpuKernel &kernel) const
{
    const sim::GpuConfig &cfg = machine.config();
    core::Coalescer coalescer(cfg.coalesceBlockBytes);
    const core::SubwarpPartition baseline =
        core::SubwarpPartition::single(cfg.warpSize);
    std::vector<std::uint64_t> per_warp(kernel.numWarps(), 0);
    for (unsigned w = 0; w < kernel.numWarps(); ++w) {
        for (const sim::WarpInstruction &instr : kernel.trace(w)) {
            if (instr.op != sim::WarpInstruction::Op::Load ||
                instr.tag != sim::AccessTag::LastRoundLookup) {
                continue;
            }
            per_warp[w] += coalescer.countAccesses(instr.lanes, baseline);
        }
    }
    return per_warp;
}

bool
KernelScheduler::gangFree() const
{
    return std::find(gangBusy.begin(), gangBusy.end(), false) !=
           gangBusy.end();
}

unsigned
KernelScheduler::busyGangs() const
{
    return static_cast<unsigned>(
        std::count(gangBusy.begin(), gangBusy.end(), true));
}

void
KernelScheduler::launchBatch(std::vector<Request> batch, Cycle now)
{
    RCOAL_ASSERT(!batch.empty(), "launching an empty batch");

    unsigned gang = 0;
    while (gang < gangBusy.size() && gangBusy[gang])
        ++gang;
    RCOAL_ASSERT(gang < gangBusy.size(),
                 "launchBatch with every gang busy");

    ResidentBatch entry;
    entry.gang = gang;
    entry.launchedAt = now;
    entry.lineOffsets.reserve(batch.size());

    std::vector<aes::Block> plaintext;
    unsigned offset = 0;
    for (const Request &request : batch) {
        entry.lineOffsets.push_back(offset);
        offset += request.lines();
        plaintext.insert(plaintext.end(), request.plaintext.begin(),
                         request.plaintext.end());
    }

    entry.kernel = std::make_unique<workloads::AesGpuKernel>(
        plaintext, secretKey, machine.config().warpSize);
    entry.predictedPerWarp = predictedBaselineLastRound(*entry.kernel);
    entry.predictedLastRound = 0;
    for (std::uint64_t w : entry.predictedPerWarp)
        entry.predictedLastRound += w;
    entry.id = machine.launch(*entry.kernel, gangRange(gang));
    entry.requests = std::move(batch);

    if (spanCollector != nullptr) {
        // Queue stage closes and the batch seals for every request;
        // then the launch's warp->span ownership map goes live so the
        // simulator's stamp points can attribute in-kernel stages.
        std::vector<std::uint32_t> warp_spans(entry.kernel->numWarps(),
                                              0);
        const unsigned warp_size = machine.config().warpSize;
        for (std::size_t r = 0; r < entry.requests.size(); ++r) {
            const Request &request = entry.requests[r];
            spanCollector->stampRequest(
                request.spanId, spans::SpanStage::Queue,
                request.arrival, now,
                static_cast<std::uint32_t>(request.lines()),
                static_cast<std::uint16_t>(gang));
            spanCollector->stampRequest(
                request.spanId, spans::SpanStage::BatchSeal, now, now,
                static_cast<std::uint32_t>(entry.requests.size()),
                static_cast<std::uint16_t>(gang));
            const unsigned first = entry.lineOffsets[r];
            const unsigned first_warp = first / warp_size;
            const unsigned end_warp = std::min(
                static_cast<unsigned>(warp_spans.size()),
                (first + request.lines() + warp_size - 1) / warp_size);
            for (unsigned w = first_warp; w < end_warp; ++w) {
                // A boundary warp shared by two requests stays with
                // the earlier one (single owner per warp).
                if (warp_spans[w] == 0)
                    warp_spans[w] = request.spanId;
            }
        }
        spanCollector->registerLaunch(
            spanNamespace, static_cast<std::uint32_t>(entry.id),
            std::move(warp_spans));
    }

    gangBusy[gang] = true;
    ++launchedCount;
    batchedCount += entry.requests.size();
    RCOAL_TRACE(traceSink, ServeLaunch, now, entry.id, gang,
                entry.requests.size());
    resident.push_back(std::move(entry));
}

std::vector<CompletedRequest>
KernelScheduler::collectCompleted(Cycle now)
{
    std::vector<CompletedRequest> out;
    // The common case, polled every loop step: nothing has completed.
    if (!machine.anyCompletedUntaken())
        return out;
    for (auto it = resident.begin(); it != resident.end();) {
        if (!machine.done(it->id)) {
            ++it;
            continue;
        }
        // The kernel's true finish cycle, not the poll cycle: the serve
        // loop polls at kernelPollInterval granularity, and stamping the
        // poll cycle quantized (and inflated) every latency percentile.
        const Cycle finished = machine.finishCycle(it->id);
        RCOAL_ASSERT(finished <= now,
                     "launch %llu finished at %llu, after poll cycle %llu",
                     static_cast<unsigned long long>(it->id),
                     static_cast<unsigned long long>(finished),
                     static_cast<unsigned long long>(now));
        const sim::KernelStats stats = machine.take(it->id);
        const auto &cipher = it->kernel->ciphertext();
        const auto batch_size =
            static_cast<unsigned>(it->requests.size());

        KernelSnapshot snap;
        snap.launchId = it->id;
        snap.gang = it->gang;
        snap.batchRequests = batch_size;
        snap.launchedAt = it->launchedAt;
        snap.finishedAt = finished;
        snap.cycles = stats.cycles;
        snap.coalescedAccesses = stats.coalescedAccesses;
        snap.lastRoundAccesses = stats.lastRoundAccesses();
        snap.predictedLastRoundAccesses = it->predictedLastRound;
        snap.prtStallCycles = stats.prtStallCycles;
        snap.icnStallCycles = stats.icnStallCycles;
        snapshots.push_back(snap);

        for (std::size_t r = 0; r < it->requests.size(); ++r) {
            Request &request = it->requests[r];
            CompletedRequest done;
            done.id = request.id;
            done.isProbe = request.isProbe;
            done.clientId = request.clientId;
            done.tenant = request.tenant;
            done.lines = request.lines();
            done.arrival = request.arrival;
            done.launched = it->launchedAt;
            done.completed = finished;
            const unsigned first = it->lineOffsets[r];
            done.ciphertext.assign(cipher.begin() + first,
                                   cipher.begin() + first + done.lines);
            done.kernelTotalTime = static_cast<double>(stats.cycles);
            done.kernelLastRoundTime =
                static_cast<double>(stats.lastRoundCycles());
            done.kernelLastRoundAccesses = stats.lastRoundAccesses();
            done.kernelTotalAccesses = stats.coalescedAccesses;
            // This request's own slice of the predicted count: the
            // warps whose lines it contributed. Requests are padded to
            // warp multiples in practice; a shared boundary warp is
            // attributed to every request overlapping it.
            {
                const unsigned warp_size = machine.config().warpSize;
                const unsigned first_warp = first / warp_size;
                const unsigned end_warp = std::min(
                    static_cast<unsigned>(it->predictedPerWarp.size()),
                    (first + done.lines + warp_size - 1) / warp_size);
                std::uint64_t own = 0;
                for (unsigned w = first_warp; w < end_warp; ++w)
                    own += it->predictedPerWarp[w];
                done.kernelPredictedLastRoundAccesses = own;
            }
            done.batchRequests = batch_size;
            done.spanId = request.spanId;
            if (spanCollector != nullptr && request.spanId != 0) {
                spanCollector->stampRequest(
                    request.spanId, spans::SpanStage::KernelExec,
                    it->launchedAt, finished, batch_size,
                    static_cast<std::uint16_t>(it->gang),
                    static_cast<std::uint64_t>(stats.lastRoundCycles()));
                spanCollector->stampRequest(
                    request.spanId, spans::SpanStage::Response, finished,
                    finished, 0, static_cast<std::uint16_t>(it->gang));
                done.spanSampled =
                    spanCollector->sampled(request.spanId);
                done.stageTotals =
                    spanCollector->finishRequest(request.spanId);
            }
            RCOAL_TRACE(traceSink, ServeComplete, finished, done.id,
                        finished - done.arrival, it->gang);
            out.push_back(std::move(done));
        }

        if (spanCollector != nullptr) {
            spanCollector->releaseLaunch(
                spanNamespace, static_cast<std::uint32_t>(it->id));
        }
        gangBusy[it->gang] = false;
        it = resident.erase(it);
    }
    return out;
}

} // namespace rcoal::serve
