/**
 * @file
 * Golden digests of the cycle-level engine below the frontends.
 *
 * EngineGolden runs the serve cell without its frontend: three
 * concurrent AES batches on three five-SM gangs of the Table I machine,
 * plus a fourth batch launched on the first gang the cycle it frees.
 * Each cell folds every launch's full KernelStats and finish cycle, the
 * machine's end cycle, and the telemetry exposition (per-bank DRAM
 * counters, refreshes, crossbar packets, cumulative stats) into one
 * FNV-1a 64 digest. The cells span {BASE, RSS+RTS(8)} x {flat, L1+L2}
 * x {GDDR5, GDDR6, HBM2} x {LRR, GTO}, plus a PRT-saturated cell
 * (prtEntries = warpSize) and a refresh-on cell, and every cell must
 * produce the same digest with cycle skipping on and off.
 *
 * The skip-vs-step oracle compares two runs of the same build, so a
 * change to what a stepped tick does (the SM's stall replay, the DRAM's
 * retire order) moves both sides together; these constants pin the
 * stepped result itself across commits. A standalone DramPartition
 * digest pins the completion order under a deep backlog per backend,
 * and under RCOAL_TRACE a digest of the SM and DRAM trace sinks pins
 * the per-cycle SmStall events of the PRT-saturated cell.
 *
 * The engine models the PRT by its occupancy alone, so the cells also
 * check that every launch gives back all the entries it reserved, and
 * one test checks the per-instruction count against the functional
 * Fig. 11 table (core::PendingRequestTable).
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rcoal/common/rng.hpp"
#include "rcoal/core/coalescer.hpp"
#include "rcoal/core/partitioner.hpp"
#include "rcoal/core/pending_request_table.hpp"
#include "rcoal/mem/dram_backend.hpp"
#include "rcoal/sim/dram.hpp"
#include "rcoal/sim/gpu_machine.hpp"
#include "rcoal/sim/kernel.hpp"
#include "rcoal/telemetry/prometheus.hpp"
#include "rcoal/telemetry/registry.hpp"
#include "rcoal/telemetry/sampler.hpp"
#include "rcoal/trace/tracer.hpp"
#include "rcoal/workloads/aes_kernel.hpp"
#include "support/fnv.hpp"

namespace rcoal::sim {
namespace {

using test::Fnv;

const std::array<std::uint8_t, 16> kKey = {
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
    0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

constexpr unsigned kGangSms = 5;
/** Lines of the three concurrent batches and the follow-up batch. */
constexpr std::array<unsigned, 4> kBatchLines = {480, 352, 640, 256};

void
hashStats(Fnv &h, const KernelStats &s)
{
    for (const std::uint64_t v :
         {s.cycles, s.warpInstructions, s.memInstructions,
          s.coalescedAccesses, s.loadAccesses, s.storeAccesses,
          s.dramRowHits, s.dramRowMisses, s.dramActivates,
          s.dramPrecharges, s.dramRefreshes, s.l1Hits, s.l1Misses,
          s.l1SectorMisses, s.l2Hits, s.l2Misses, s.l2SectorMisses,
          s.mshrMerges, s.l2MshrMerges, s.prtStallCycles,
          s.icnStallCycles}) {
        h.u64(v);
    }
    for (const TagStats &t : s.perTag) {
        h.u64(t.accesses);
        h.u64(t.laneRequests);
        h.u64(t.firstIssue);
        h.u64(t.lastComplete);
    }
}

/** One engine cell; the defaults are the serve cell's machine. */
struct Cell
{
    bool rssRts = false;
    bool caches = false;
    DramBackendKind backend = DramBackendKind::Gddr5;
    SchedulerPolicy scheduler = SchedulerPolicy::LooseRoundRobin;
    std::size_t prtEntries = 0; ///< 0 = the Table I default.
    bool refresh = false;

    GpuConfig config(bool skipping) const
    {
        GpuConfig cfg = GpuConfig::paperBaseline();
        cfg.policy = rssRts ? core::CoalescingPolicy::rss(8, true)
                            : core::CoalescingPolicy::baseline();
        cfg.l1Enabled = caches;
        cfg.l2Enabled = caches;
        cfg.mshrEnabled = caches;
        cfg.dramBackend = backend;
        cfg.scheduler = scheduler;
        if (prtEntries != 0)
            cfg.prtEntries = prtEntries;
        cfg.refreshEnabled = refresh;
        cfg.cycleSkipping = skipping;
        cfg.seed = 20261017;
        cfg.validate();
        return cfg;
    }

    std::string name() const
    {
        std::string n = rssRts ? "rss_rts8" : "base";
        n += caches ? "/l1l2" : "/flat";
        n += backend == DramBackendKind::Gddr5   ? "/gddr5"
             : backend == DramBackendKind::Gddr6 ? "/gddr6"
                                                 : "/hbm2";
        n += scheduler == SchedulerPolicy::GreedyThenOldest ? "/gto"
                                                            : "/lrr";
        if (prtEntries != 0)
            n += "/prt" + std::to_string(prtEntries);
        if (refresh)
            n += "/refresh";
        return n;
    }
};

/** Batches, each with its own plaintext stream. */
std::vector<std::unique_ptr<workloads::AesGpuKernel>>
makeBatches(unsigned warp_size)
{
    std::vector<std::unique_ptr<workloads::AesGpuKernel>> batches;
    for (std::size_t b = 0; b < kBatchLines.size(); ++b) {
        Rng rng = Rng::stream(17, b);
        const auto plaintext = workloads::randomPlaintext(kBatchLines[b], rng);
        batches.push_back(std::make_unique<workloads::AesGpuKernel>(
            plaintext, kKey, warp_size));
    }
    return batches;
}

/**
 * Run @p cell to completion and digest it. With @p tracer attached, the
 * digest covers the SM and DRAM trace sinks instead of the stats.
 */
std::uint64_t
runCell(const Cell &cell, bool skipping, trace::Tracer *tracer = nullptr)
{
    const GpuConfig cfg = cell.config(skipping);
    const auto batches = makeBatches(cfg.warpSize);
    GpuMachine machine(cfg);
    if (tracer != nullptr)
        machine.setTracer(tracer);
    // A sampler that never comes due: it only exposes the machine's
    // per-bank DRAM counters and totals through collect() at the end.
    telemetry::MetricRegistry registry;
    telemetry::TelemetrySampler sampler(registry, Cycle{1} << 40);
    machine.setTelemetry(&sampler);

    struct Running
    {
        GpuMachine::LaunchId id;
        SmRange range;
        bool taken;
    };
    std::vector<Running> launches;
    for (unsigned g = 0; g < 3; ++g) {
        const SmRange gang{g * kGangSms, kGangSms};
        launches.push_back(
            {machine.launchStream(*batches[g], gang,
                                  /*rng_stream_index=*/g + 1),
             gang, false});
    }

    Fnv h;
    std::size_t taken = 0;
    while (taken < kBatchLines.size()) {
        machine.tick();
        for (std::size_t i = 0; i < launches.size(); ++i) {
            if (launches[i].taken || !machine.done(launches[i].id))
                continue;
            h.u64(i);
            h.u64(machine.finishCycle(launches[i].id));
            hashStats(h, machine.take(launches[i].id));
            // Every load released the PRT entries it reserved, MSHR-
            // merged ones included.
            EXPECT_EQ(machine.prtOccupancy(launches[i].range), 0u)
                << cell.name() << ": launch " << i;
            launches[i].taken = true;
            ++taken;
            if (i == 0) {
                // The first gang takes the follow-up batch at once.
                launches.push_back(
                    {machine.launchStream(*batches[3],
                                          SmRange{0, kGangSms},
                                          /*rng_stream_index=*/4),
                     SmRange{0, kGangSms}, false});
            }
        }
        if (!machine.cycleSkippingEnabled() || taken == kBatchLines.size())
            continue;
        const Cycle target =
            std::min(machine.nextEventCycle(), machine.now() + 1'000'000);
        if (target > machine.now() + 1)
            machine.skipTo(target);
    }
    EXPECT_EQ(machine.prtOccupancy(), 0u) << cell.name();
    h.u64(machine.now());
    sampler.collect(machine.now());
    h.str(telemetry::renderPrometheus(registry));
    machine.setTelemetry(nullptr);

    if (tracer == nullptr)
        return h.value();
    machine.setTracer(nullptr);
    Fnv t;
    for (const auto &sink : tracer->sinks()) {
        const std::string &name = sink->name();
        if (name.rfind("sm", 0) != 0 && name.rfind("dram", 0) != 0)
            continue;
        t.str(name);
        t.u64(sink->totalRecorded());
        t.u64(sink->dropped());
        for (const trace::TraceEvent &e : sink->snapshot()) {
            t.u64(e.cycle);
            t.u64(e.a);
            t.u64(e.b);
            t.u64(e.c);
            t.u64(static_cast<std::uint64_t>(e.kind));
            t.u64(e.component);
        }
    }
    return t.value();
}

/** One grid cell and the digest it must produce. */
struct GridGolden
{
    bool rssRts;
    bool caches;
    DramBackendKind backend;
    SchedulerPolicy scheduler;
    std::uint64_t digest;

    Cell cell() const
    {
        Cell c;
        c.rssRts = rssRts;
        c.caches = caches;
        c.backend = backend;
        c.scheduler = scheduler;
        return c;
    }
};

constexpr auto kGddr5 = DramBackendKind::Gddr5;
constexpr auto kGddr6 = DramBackendKind::Gddr6;
constexpr auto kHbm2 = DramBackendKind::Hbm2;
constexpr auto kLrr = SchedulerPolicy::LooseRoundRobin;
constexpr auto kGto = SchedulerPolicy::GreedyThenOldest;

constexpr std::array<GridGolden, 24> kGrid = {{
    {false, false, kGddr5, kLrr, 0xc0170d93875df84eull},
    {false, false, kGddr5, kGto, 0x3c2f72ace18c98bcull},
    {false, false, kGddr6, kLrr, 0x87caa3d2bbe7157aull},
    {false, false, kGddr6, kGto, 0xcdad6a6e82d6b2cbull},
    {false, false, kHbm2, kLrr, 0x2e249d838ce8a1beull},
    {false, false, kHbm2, kGto, 0x8c0937792068e6e7ull},
    {false, true, kGddr5, kLrr, 0x1b51dd905ee57e68ull},
    {false, true, kGddr5, kGto, 0x35ec914251fcca86ull},
    {false, true, kGddr6, kLrr, 0x617e59cffb69d7f0ull},
    {false, true, kGddr6, kGto, 0x14d6df647bcbcb1cull},
    {false, true, kHbm2, kLrr, 0xd3c00e8831a06786ull},
    {false, true, kHbm2, kGto, 0x6518a971427fa840ull},
    {true, false, kGddr5, kLrr, 0x7e2353e877b94fabull},
    {true, false, kGddr5, kGto, 0x200c18f9a0d01bf5ull},
    {true, false, kGddr6, kLrr, 0x600ee5971bf97165ull},
    {true, false, kGddr6, kGto, 0xdedbeca2a1a6e8ecull},
    {true, false, kHbm2, kLrr, 0xc71b15672b54ab36ull},
    {true, false, kHbm2, kGto, 0xdb21e3a6c07e70dcull},
    {true, true, kGddr5, kLrr, 0xeb43f2fcdaea5304ull},
    {true, true, kGddr5, kGto, 0x9dcc0692419c239aull},
    {true, true, kGddr6, kLrr, 0xeaed94147480a3a0ull},
    {true, true, kGddr6, kGto, 0x3c8140e9c8c39599ull},
    {true, true, kHbm2, kLrr, 0x9810222ff68eb529ull},
    {true, true, kHbm2, kGto, 0xdded3c4bdc140c38ull},
}};

Cell
prtSaturatedCell()
{
    Cell c;
    c.prtEntries = 32; // = warpSize: one divergent load fills the PRT.
    return c;
}

Cell
refreshCell()
{
    Cell c;
    c.rssRts = true;
    c.backend = kHbm2;
    c.refresh = true;
    return c;
}

constexpr std::uint64_t kPrtSaturatedGolden = 0x1fd4a536177e8591ull;
constexpr std::uint64_t kRefreshGolden = 0x3b16e1f02437fea9ull;

void
expectCell(const Cell &cell, std::uint64_t want)
{
    for (const bool skipping : {false, true}) {
        const std::uint64_t got = runCell(cell, skipping);
        EXPECT_EQ(got, want)
            << cell.name() << (skipping ? " skipping" : " stepped")
            << std::hex << ": digest 0x" << got;
    }
}

class EngineGoldenGrid : public ::testing::TestWithParam<GridGolden>
{};

TEST_P(EngineGoldenGrid, ServeCellDigest)
{
    expectCell(GetParam().cell(), GetParam().digest);
}

INSTANTIATE_TEST_SUITE_P(
    EngineGolden, EngineGoldenGrid, ::testing::ValuesIn(kGrid),
    [](const ::testing::TestParamInfo<GridGolden> &info) {
        std::string n = info.param.cell().name();
        std::replace(n.begin(), n.end(), '/', '_');
        return n;
    });

TEST(EngineGolden, PrtSaturatedCellDigest)
{
    expectCell(prtSaturatedCell(), kPrtSaturatedGolden);
}

TEST(EngineGolden, RefreshCellDigest)
{
    expectCell(refreshCell(), kRefreshGolden);
}

TEST(EngineGolden, PrtCountMatchesFunctionalTableOnStraddlingLanes)
{
    // CoalescerGolden's straddling-lane fixture: 8-byte requests, half
    // of them 4 bytes before a 64-byte block boundary, so a lane served
    // by two accesses holds two PRT entries.
    GpuConfig cfg = GpuConfig::paperBaseline();
    cfg.policy = core::CoalescingPolicy::rss(8, true);
    cfg.coalesceBlockBytes = 64;
    cfg.validate();
    const core::SubwarpPartitioner partitioner(cfg.policy, cfg.warpSize);
    const core::Coalescer coalescer(cfg.coalesceBlockBytes);
    std::vector<core::CoalescedAccess> out;
    GpuMachine machine(cfg);
    Rng rng(8);
    std::size_t straddling_entries = 0;
    for (std::uint64_t stream = 1; stream <= 200; ++stream) {
        std::vector<core::LaneRequest> lanes(cfg.warpSize);
        for (ThreadId t = 0; t < cfg.warpSize; ++t) {
            const Addr block = 0x8000 + 64 * rng.below(24);
            const Addr addr = rng.below(2) ? block + 60 : block + 8;
            lanes[t] = {t, addr, 8, true};
        }
        // The functional table, driven by the coalesce of the partition
        // the machine draws for this launch's only warp.
        Rng launch_rng = Rng::stream(cfg.seed, stream);
        coalescer.coalesceInto(lanes, partitioner.draw(launch_rng), out);
        core::PendingRequestTable table(cfg.prtEntries);
        std::size_t allocations = 0;
        for (const core::CoalescedAccess &access : out) {
            for (const ThreadId tid : access.threads) {
                const core::LaneRequest &lane = lanes[tid];
                const std::uint32_t offset =
                    coalescer.blockAlign(lane.addr) == access.blockAddr
                        ? static_cast<std::uint32_t>(lane.addr -
                                                     access.blockAddr)
                        : 0;
                ASSERT_TRUE(table.allocate(tid, access.blockAddr, offset,
                                           lane.size, access.sid));
                ++allocations;
            }
        }
        straddling_entries += allocations - cfg.warpSize;

        const VectorKernel kernel(
            {{WarpInstruction::load(lanes, AccessTag::Generic)}});
        const auto id = machine.launchStream(kernel, SmRange{0, 1}, stream);
        machine.tick(); // The load issues on the launch's first cycle.
        EXPECT_EQ(machine.prtOccupancy(SmRange{0, 1}), allocations)
            << "launch " << stream;
        machine.runUntilDone(id);
        machine.take(id);
        EXPECT_EQ(machine.prtOccupancy(), 0u) << "launch " << stream;
    }
    EXPECT_GT(straddling_entries, 0u);
}

#if RCOAL_TRACE_ENABLED
constexpr std::uint64_t kPrtSaturatedTraceGolden = 0x14f54056a0aea205ull;

TEST(EngineGolden, PrtSaturatedTraceDigest)
{
    // SmStall events are per cycle: a replayed stall that skipped its
    // event, or an extra scan that emitted one twice, moves this digest.
    for (const bool skipping : {false, true}) {
        trace::Tracer tracer(/*capacity_per_sink=*/1 << 13);
        const std::uint64_t got =
            runCell(prtSaturatedCell(), skipping, &tracer);
        EXPECT_EQ(got, kPrtSaturatedTraceGolden)
            << (skipping ? "skipping" : "stepped") << std::hex
            << ": trace digest 0x" << got;
    }
}
#endif

/**
 * A standalone partition fed a seeded stream two requests per memory
 * cycle, far above its service rate, so the queue stays full and the
 * completion order under backlog (and, on HBM2, the same-cycle order
 * across pseudo-channels) is pinned.
 */
std::uint64_t
drainDigest(DramBackendKind backend, bool refresh)
{
    GpuConfig cfg = GpuConfig::paperBaseline();
    cfg.dramBackend = backend;
    cfg.refreshEnabled = refresh;
    cfg.validate();
    KernelStats stats;
    DramPartition dram(cfg, 0, &stats);

    Rng rng = Rng::stream(2026, static_cast<std::uint64_t>(backend));
    constexpr std::uint64_t kRequests = 3000;
    std::uint64_t issued = 0;
    std::uint64_t retired = 0;
    DramLocation last{};
    Fnv h;
    for (Cycle now = 1; retired < kRequests; ++now) {
        if (now > Cycle{1'000'000}) {
            ADD_FAILURE() << "partition never drained";
            break;
        }
        for (unsigned k = 0; k < 2 && issued < kRequests && dram.canAccept();
             ++k) {
            // Mostly streaming within a few hot rows, with jumps, so
            // row hits, conflicts and idle banks all occur.
            DramLocation loc = last;
            if (issued == 0 || rng.below(4) == 0) {
                loc.bank = static_cast<unsigned>(
                    rng.below(cfg.banksPerPartition));
                loc.row = rng.below(8);
            }
            loc.partition = 0;
            loc.bankGroup = loc.bank % cfg.bankGroups;
            loc.column = static_cast<std::uint32_t>(rng.below(32) * 64);
            last = loc;
            MemoryAccess access;
            access.id = issued++;
            access.isWrite = rng.below(5) == 0;
            dram.enqueue(std::move(access), loc, now);
        }
        h.u64(dram.queuedRequests());
        dram.tick(now);
        while (dram.hasCompleted(now)) {
            const MemoryAccess done = dram.popCompleted(now);
            h.u64(done.id);
            h.u64(now);
            ++retired;
        }
    }
    for (const auto &bank : dram.bankCounters()) {
        h.u64(bank.rowHits);
        h.u64(bank.rowMisses);
        h.u64(bank.activates);
        h.u64(bank.precharges);
    }
    h.u64(dram.refreshes());
    return h.value();
}

TEST(EngineGolden, DramBacklogCompletionOrder)
{
    struct Want
    {
        DramBackendKind backend;
        bool refresh;
        std::uint64_t digest;
    };
    const std::array<Want, 6> wants = {{
        {DramBackendKind::Gddr5, false, 0xf7cf029e5a0ad025ull},
        {DramBackendKind::Gddr5, true, 0x2c0a7919d18f8636ull},
        {DramBackendKind::Gddr6, false, 0xa33e3a999b1587b6ull},
        {DramBackendKind::Gddr6, true, 0xecd418ff2df80c53ull},
        {DramBackendKind::Hbm2, false, 0x6a758ce6e8db5de8ull},
        {DramBackendKind::Hbm2, true, 0x3f8bc9b10753e1c6ull},
    }};
    for (const Want &w : wants) {
        const std::uint64_t got = drainDigest(w.backend, w.refresh);
        EXPECT_EQ(got, w.digest)
            << mem::dramBackendKindName(w.backend)
            << (w.refresh ? " refresh" : "") << std::hex << ": digest 0x"
            << got;
    }
}

} // namespace
} // namespace rcoal::sim
