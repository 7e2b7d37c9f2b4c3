/**
 * @file
 * Serve-level span determinism suite: the retained span records of a
 * serving run are byte-identical across cycle-skipping on/off, across
 * thread-pool worker counts, across fork-vs-replay warm boot, and —
 * filtered to the sampled subset — across span sample rates.
 *
 * Every test name contains "Span" so the whole suite also runs under
 * the ThreadSanitizer filter in CI.
 */

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "rcoal/common/thread_pool.hpp"
#include "rcoal/fleet/fleet.hpp"
#include "rcoal/serve/server.hpp"
#include "rcoal/spans/collector.hpp"

namespace rcoal::spans {
namespace {

const std::array<std::uint8_t, 16> kKey = {
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
    0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

sim::GpuConfig
smallGpu(bool cycle_skipping = true)
{
    sim::GpuConfig cfg = sim::GpuConfig::paperBaseline();
    cfg.numSms = 4;
    cfg.seed = 42;
    cfg.cycleSkipping = cycle_skipping;
    return cfg;
}

serve::ServeConfig
smallServe(unsigned warm_boot = 0)
{
    serve::ServeConfig cfg;
    cfg.queueCapacity = 16;
    cfg.maxBatchRequests = 2;
    cfg.batchTimeoutCycles = 2000;
    cfg.smsPerKernel = 2;
    cfg.warmBootKernels = warm_boot;
    return cfg;
}

serve::WorkloadSpec
smallSpec()
{
    serve::WorkloadSpec spec;
    spec.probeSamples = 6;
    spec.probeLines = 32;
    spec.probeSeed = 7;
    spec.probeThinkCycles = 100;
    // Background traffic so batches mix tenants and several spans are
    // in flight at once.
    spec.backgroundMeanGapCycles = 15000.0;
    spec.backgroundLineChoices = {32};
    spec.backgroundSeed = 99;
    return spec;
}

/** Run one serving scenario and return the retained span records. */
std::vector<SpanRecord>
runAndSnapshotSpans(const sim::GpuConfig &gpu,
                    const serve::ServeConfig &cfg,
                    std::uint32_t sample_rate = 1,
                    const sim::MachineSnapshot *warm_boot = nullptr)
{
    SpanCollector::Config span_cfg;
    span_cfg.sampleRate = sample_rate;
    SpanCollector collector(span_cfg);
    serve::ServeTelemetry hooks;
    hooks.spans = &collector;
    const serve::EncryptionServer server(gpu, cfg, kKey);
    (void)server.run(smallSpec(), nullptr, &hooks, warm_boot);
    EXPECT_GT(collector.slab().totalAppended(), 0u);
    EXPECT_EQ(collector.liveSpans(), 0u)
        << "spans leaked past the serving loop";
    return collector.slab().snapshot();
}

void
expectSpanRecordsIdentical(const std::vector<SpanRecord> &a,
                           const std::vector<SpanRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(0, std::memcmp(&a[i], &b[i], sizeof(SpanRecord)))
            << "span record " << i << " diverged (span " << a[i].spanId
            << " stage " << int(a[i].stage) << " vs span " << b[i].spanId
            << " stage " << int(b[i].stage) << ")";
    }
}

TEST(SpanDeterminism, SpanRecordsIdenticalAcrossCycleSkipping)
{
    const auto with_skip =
        runAndSnapshotSpans(smallGpu(true), smallServe());
    const auto without_skip =
        runAndSnapshotSpans(smallGpu(false), smallServe());
    expectSpanRecordsIdentical(with_skip, without_skip);
}

/** Run one 3-replica JSQ fleet scenario; return its retained records. */
std::vector<SpanRecord>
runFleetAndSnapshotSpans(bool cycle_skipping)
{
    fleet::FleetConfig cfg;
    cfg.numReplicas = 3;
    cfg.routing = fleet::RoutingPolicy::JoinShortestQueue;

    fleet::FleetWorkloadSpec spec;
    spec.probeSamples = 6;
    spec.probeLines = 32;
    spec.probeSeed = 7;
    spec.probeThinkCycles = 100;
    spec.tenants.tenants = 3;
    spec.tenants.baseMeanGapCycles = 4000.0;
    spec.tenants.lineChoices = {32};
    spec.tenants.seed = 99;

    SpanCollector collector;
    fleet::FleetTelemetry hooks;
    hooks.spans = &collector;
    const fleet::FleetServer server(smallGpu(cycle_skipping),
                                    smallServe(), cfg, kKey);
    (void)server.run(spec, &hooks);
    EXPECT_GT(collector.slab().totalAppended(), 0u);
    EXPECT_EQ(collector.liveSpans(), 0u)
        << "spans leaked past the fleet loop";
    return collector.slab().snapshot();
}

TEST(SpanDeterminism, FleetSpanRecordsIdenticalAcrossCycleSkipping)
{
    expectSpanRecordsIdentical(runFleetAndSnapshotSpans(true),
                               runFleetAndSnapshotSpans(false));
}

TEST(SpanDeterminism, SpanRecordsIdenticalAcrossWorkerThreads)
{
    // A serving run is single-threaded by construction; the threads
    // axis is scenarios spreading over a pool. Run the same scenario
    // serially and from 8 pool workers concurrently — every copy must
    // produce the same records.
    const auto serial = runAndSnapshotSpans(smallGpu(), smallServe());
    ThreadPool pool(8);
    const auto pooled = pool.parallelMap(8, [&](std::size_t) {
        return runAndSnapshotSpans(smallGpu(), smallServe());
    });
    for (const auto &records : pooled)
        expectSpanRecordsIdentical(serial, records);
}

TEST(SpanDeterminism, SpanRecordsIdenticalForkVsReplay)
{
    const sim::GpuConfig gpu = smallGpu();
    const serve::ServeConfig cfg = smallServe(/*warm_boot=*/2);
    const serve::EncryptionServer server(gpu, cfg, kKey);
    const sim::MachineSnapshot warm = server.warmBootSnapshot();

    const auto forked = runAndSnapshotSpans(gpu, cfg, 1, &warm);
    const auto replayed = runAndSnapshotSpans(gpu, cfg, 1, nullptr);
    expectSpanRecordsIdentical(forked, replayed);
}

TEST(SpanDeterminism, SpanSampledRunMatchesSampledSubsetOfFullRun)
{
    const auto full = runAndSnapshotSpans(smallGpu(), smallServe(), 1);
    const auto sampled =
        runAndSnapshotSpans(smallGpu(), smallServe(), 4);

    std::vector<SpanRecord> expected;
    for (const SpanRecord &r : full)
        if (r.spanId % 4 == 0)
            expected.push_back(r);
    ASSERT_FALSE(expected.empty())
        << "fixture too small: no sampled span ids";
    expectSpanRecordsIdentical(sampled, expected);
}

TEST(SpanDeterminism, SpanTotalsMatchRecordDurations)
{
    // Cross-check the two bookkeeping paths: per-request StageTotals
    // accumulated at stamp time vs the slab's raw records.
    SpanCollector collector;
    serve::ServeTelemetry hooks;
    hooks.spans = &collector;
    const serve::EncryptionServer server(smallGpu(), smallServe(), kKey);
    const serve::ServeReport report =
        server.run(smallSpec(), nullptr, &hooks);

    std::array<std::uint64_t, kNumSpanStages> from_records{};
    for (const SpanRecord &r : collector.slab().snapshot())
        from_records[r.stage] += r.end - r.begin;
    std::array<std::uint64_t, kNumSpanStages> from_totals{};
    for (const serve::CompletedRequest &done : report.completed) {
        EXPECT_TRUE(done.spanSampled);
        EXPECT_NE(done.spanId, 0u);
        for (std::size_t s = 0; s < kNumSpanStages; ++s)
            from_totals[s] += done.stageTotals.cycles[s];
    }
    for (std::size_t s = 0; s < kNumSpanStages; ++s)
        EXPECT_EQ(from_records[s], from_totals[s])
            << "stage " << spanStageName(static_cast<SpanStage>(s));
    // Every request spent time in its kernel. (Queue can legitimately
    // total zero: FCFS pops on arrival whenever a gang is free.)
    const auto st_kexec =
        static_cast<std::size_t>(SpanStage::KernelExec);
    EXPECT_GT(from_totals[st_kexec], 0u);
}

} // namespace
} // namespace rcoal::spans
