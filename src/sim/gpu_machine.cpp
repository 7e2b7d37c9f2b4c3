/**
 * @file
 * GpuMachine implementation: persistent machine state, ranged launches
 * and the shared-memory-system cycle loop.
 */

#include "rcoal/sim/gpu_machine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>

#include "rcoal/common/logging.hpp"
#include "rcoal/spans/collector.hpp"
#include "rcoal/telemetry/sampler.hpp"

namespace rcoal::sim {

namespace {

/** Run the config's own validation before any component consumes it. */
GpuConfig
validated(GpuConfig config)
{
    config.validate();
    return config;
}

// Snapshot arena region tags. The reader checks each against the
// writer's order, so a save/restore drift panics instead of misreading.
constexpr std::uint32_t kTagMachine = 0x6d636831; // 'mch1'
constexpr std::uint32_t kTagSm = 0x736d3033;      // 'sm03'
constexpr std::uint32_t kTagXbar = 0x78626172;    // 'xbar'
constexpr std::uint32_t kTagDram = 0x6472616d;    // 'dram'
constexpr std::uint32_t kTagL2 = 0x6c322e30;      // 'l2.0'
constexpr std::uint32_t kTagChecker = 0x63686b72; // 'chkr'
constexpr std::uint32_t kTagSpans = 0x73706e31;   // 'spn1'

} // namespace

SimCycleCounters &
simCycleCounters()
{
    static SimCycleCounters counters;
    return counters;
}

GpuMachine::GpuMachine(GpuConfig config)
    : cfg(validated(std::move(config))),
      partitioner(cfg.policy, cfg.warpSize),
      mapping(cfg),
      slab(cfg.numSms * 4 * cfg.warpSize +
           (cfg.numSms + cfg.numPartitions) * 2 * cfg.icnQueueDepth +
           cfg.numPartitions * 2 * cfg.dramQueueDepth),
      reqXbar(cfg.numSms, cfg.numPartitions, cfg.icnLatency,
              cfg.icnQueueDepth, slab),
      respXbar(cfg.numPartitions, cfg.numSms, cfg.icnLatency,
               cfg.icnQueueDepth, slab),
      respBacklog(cfg.numPartitions),
      smBusy(cfg.numSms, false)
{
    sms.reserve(cfg.numSms);
    for (unsigned s = 0; s < cfg.numSms; ++s) {
        sms.push_back(std::make_unique<StreamingMultiprocessor>(
            cfg, s, &reqXbar, &mapping, &accessIds, slab));
    }
    drams.reserve(cfg.numPartitions);
    for (unsigned p = 0; p < cfg.numPartitions; ++p) {
        drams.push_back(
            std::make_unique<DramPartition>(cfg, p, &memStats, slab));
    }
    // Sized for one full DRAM queue's completions; they grow past that
    // only under a response-crossbar backlog, and never shrink.
    for (auto &backlog : respBacklog)
        backlog.reset(cfg.dramQueueDepth);
    if (cfg.l2Enabled) {
        l2.resize(cfg.numPartitions);
        for (auto &front : l2) {
            front.pendingHits.reset(cfg.dramQueueDepth);
            front.cache = std::make_unique<mem::SectoredCache>(cfg.l2);
            if (cfg.mshrEnabled) {
                front.mshr =
                    std::make_unique<mem::MshrTable>(cfg.l2MshrEntries);
            }
        }
    }
    skipEnabled = resolveCycleSkipping(cfg.cycleSkipping);
    resetCalendar();
}

GpuMachine::~GpuMachine()
{
    simCycleCounters().simulated.fetch_add(nowCycle,
                                           std::memory_order_relaxed);
    simCycleCounters().skipped.fetch_add(skippedTotal,
                                         std::memory_order_relaxed);
}

void
GpuMachine::setTracer(trace::Tracer *t)
{
    if (t == nullptr) {
        for (auto &sm : sms)
            sm->setTraceSink(nullptr);
        reqXbar.setTraceSink(nullptr);
        respXbar.setTraceSink(nullptr);
        for (auto &dram : drams)
            dram->setTraceSink(nullptr);
        machineSink = nullptr;
        attachedSinks.clear();
        return;
    }
    t->setCoreCyclesPerMemCycle(cfg.coreClockMhz / cfg.memClockMhz);
    attachedSinks.clear();
    // A sink pins a stalling SM to per-cycle ticks (SmStall events are
    // per cycle), so each sleeping SM's bound is read again below. The
    // crossbar and DRAM bounds do not read their sinks: a tick they
    // skip issues nothing, so it would have recorded nothing.
    const auto attach = [this](trace::TraceSink &sink) {
        attachedSinks.push_back(&sink);
        return &sink;
    };
    for (unsigned s = 0; s < cfg.numSms; ++s) {
        sms[s]->setTraceSink(attach(t->sink(
            strprintf("sm%u", s), trace::ClockDomain::Core,
            static_cast<std::uint16_t>(s))));
    }
    reqXbar.setTraceSink(
        attach(t->sink("xbar.req", trace::ClockDomain::Core)));
    respXbar.setTraceSink(
        attach(t->sink("xbar.resp", trace::ClockDomain::Core)));
    for (unsigned p = 0; p < cfg.numPartitions; ++p) {
        drams[p]->setTraceSink(attach(t->sink(
            strprintf("dram%u", p), trace::ClockDomain::Memory,
            static_cast<std::uint16_t>(p))));
    }
    machineSink = attach(t->sink("machine", trace::ClockDomain::Core));
    for (unsigned s = 0; s < cfg.numSms; ++s) {
        if (!smWakes.awake(s))
            rewakeSm(s);
    }
}

void
GpuMachine::setSpanCollector(spans::SpanCollector *c,
                             std::uint32_t span_namespace)
{
    spanCollector = c;
    spanNamespace = span_namespace;
    for (auto &sm : sms)
        sm->setSpanCollector(c, span_namespace);
}

void
GpuMachine::enableDramChecking(trace::DramProtocolChecker::Mode mode)
{
    // The backend resolves its own timing set; the checker enforces the
    // same numbers, including the bank-group/pseudo-channel rules of
    // the GDDR6/HBM2 personalities.
    const trace::DramProtocolChecker::Params params =
        mem::checkerParamsFor(cfg);
    checkerMode = mode;
    checkers.clear();
    checkers.reserve(drams.size());
    for (auto &dram : drams) {
        checkers.push_back(
            std::make_unique<trace::DramProtocolChecker>(params, mode));
        dram->setChecker(checkers.back().get());
    }
}

bool
GpuMachine::quiescent() const
{
    if (!active.empty())
        return false;
    if (!reqXbar.idle() || !respXbar.idle())
        return false;
    for (const auto &dram : drams) {
        if (!dram->idle())
            return false;
    }
    for (const auto &sm : sms) {
        if (sm->residentWarps() != 0)
            return false;
    }
    for (const auto &front : l2) {
        if (!front.pendingHits.empty())
            return false;
    }
    for (const auto &backlog : respBacklog) {
        if (!backlog.empty())
            return false;
    }
    return true;
}

MachineSnapshot
GpuMachine::snapshot()
{
    RCOAL_ASSERT(quiescent(),
                 "snapshot requires a quiescent machine (no resident "
                 "kernels, all queues drained)");
    RCOAL_ASSERT(slab.empty(),
                 "quiescent machine leaked %zu slab slots",
                 slab.liveCount());
    reqXbar.advanceIdleCycles(xbarWakes.settle(0, nowCycle));
    respXbar.advanceIdleCycles(xbarWakes.settle(1, nowCycle));
    static_assert(std::is_trivially_copyable_v<KernelStats>,
                  "KernelStats must stay memcpy-serializable");
    auto arena = std::make_shared<common::StateArena>();
    common::ArenaWriter w(*arena);

    w.beginRegion(kTagMachine);
    w.pod(memStats);
    w.pod(retiredTotals);
    w.pod(retiredLaunches);
    w.pod(launchCounter);
    w.pod(accessIds);
    w.pod(nowCycle);
    w.pod(memCycle);
    w.pod(memAccum);
    w.pod(skippedTotal);
    w.endRegion();

    for (const auto &sm : sms) {
        w.beginRegion(kTagSm);
        sm->saveState(w);
        w.endRegion();
    }

    w.beginRegion(kTagXbar);
    reqXbar.saveState(w);
    respXbar.saveState(w);
    w.endRegion();

    for (const auto &dram : drams) {
        w.beginRegion(kTagDram);
        dram->saveState(w);
        w.endRegion();
    }

    w.beginRegion(kTagL2);
    for (const auto &front : l2) {
        front.cache->saveState(w);
        w.pod(static_cast<std::uint8_t>(front.mshr != nullptr));
        if (front.mshr)
            front.mshr->saveState(w);
    }
    w.endRegion();

    w.beginRegion(kTagChecker);
    w.pod(static_cast<std::uint8_t>(!checkers.empty()));
    if (!checkers.empty()) {
        w.pod(static_cast<std::uint8_t>(checkerMode));
        for (const auto &checker : checkers)
            checker->saveState(w);
    }
    w.endRegion();

    w.beginRegion(kTagSpans);
    w.pod(static_cast<std::uint8_t>(spanCollector != nullptr));
    if (spanCollector != nullptr)
        spanCollector->saveState(w);
    w.endRegion();

    MachineSnapshot snap;
    snap.config = cfg;
    snap.arena = std::move(arena);
    return snap;
}

void
GpuMachine::restore(const MachineSnapshot &snap)
{
    RCOAL_ASSERT(snap.arena != nullptr, "restore from an empty snapshot");
    GpuConfig structural = snap.config;
    structural.seed = cfg.seed;
    RCOAL_ASSERT(structural == cfg,
                 "restore into a structurally different machine");
    RCOAL_ASSERT(quiescent(),
                 "restore requires a quiescent machine");
    RCOAL_ASSERT(telemetrySampler == nullptr,
                 "restore before attaching telemetry");

    // The cycles simulated so far would vanish from the process-wide
    // throughput counters when overwritten; fold them in first, exactly
    // as the destructor does.
    simCycleCounters().simulated.fetch_add(nowCycle,
                                           std::memory_order_relaxed);
    simCycleCounters().skipped.fetch_add(skippedTotal,
                                         std::memory_order_relaxed);

    cfg.seed = snap.config.seed;

    common::ArenaReader r(*snap.arena);

    r.beginRegion(kTagMachine);
    r.pod(memStats);
    r.pod(retiredTotals);
    r.pod(retiredLaunches);
    r.pod(launchCounter);
    r.pod(accessIds);
    r.pod(nowCycle);
    r.pod(memCycle);
    r.pod(memAccum);
    r.pod(skippedTotal);
    r.endRegion();

    for (auto &sm : sms) {
        r.beginRegion(kTagSm);
        sm->restoreState(r);
        r.endRegion();
    }

    r.beginRegion(kTagXbar);
    reqXbar.restoreState(r);
    respXbar.restoreState(r);
    r.endRegion();

    for (auto &dram : drams) {
        r.beginRegion(kTagDram);
        dram->restoreState(r);
        r.endRegion();
    }

    r.beginRegion(kTagL2);
    for (auto &front : l2) {
        front.cache->restoreState(r);
        const bool had_mshr = r.take<std::uint8_t>() != 0;
        RCOAL_ASSERT(had_mshr == (front.mshr != nullptr),
                     "L2 MSHR presence mismatch on restore");
        if (front.mshr)
            front.mshr->restoreState(r);
    }
    r.endRegion();

    r.beginRegion(kTagChecker);
    const bool checking = r.take<std::uint8_t>() != 0;
    if (checking) {
        const auto mode = static_cast<trace::DramProtocolChecker::Mode>(
            r.take<std::uint8_t>());
        if (checkers.empty() || mode != checkerMode)
            enableDramChecking(mode);
        for (auto &checker : checkers)
            checker->restoreState(r);
    } else if (!checkers.empty()) {
        for (auto &dram : drams)
            dram->setChecker(nullptr);
        checkers.clear();
    }
    r.endRegion();

    r.beginRegion(kTagSpans);
    const bool had_spans = r.take<std::uint8_t>() != 0;
    if (had_spans) {
        RCOAL_ASSERT(spanCollector != nullptr,
                     "snapshot carries span state but no collector "
                     "is attached");
        spanCollector->restoreState(r);
    } else if (spanCollector != nullptr) {
        spanCollector->clear();
    }
    r.endRegion();

    RCOAL_ASSERT(r.atEnd(), "snapshot arena has trailing bytes");
    resetCalendar(); // After the DRAM timing its bounds read.
}

std::unique_ptr<GpuMachine>
GpuMachine::fork(const MachineSnapshot &snap)
{
    auto machine = std::make_unique<GpuMachine>(snap.config);
    machine->restore(snap);
    return machine;
}

void
GpuMachine::reseed(std::uint64_t seed)
{
    cfg.seed = seed;
}

void
GpuMachine::reset()
{
    RCOAL_ASSERT(quiescent(), "reset requires a quiescent machine");
    RCOAL_ASSERT(slab.empty(),
                 "quiescent machine leaked %zu slab slots",
                 slab.liveCount());
    simCycleCounters().simulated.fetch_add(nowCycle,
                                           std::memory_order_relaxed);
    simCycleCounters().skipped.fetch_add(skippedTotal,
                                         std::memory_order_relaxed);

    memStats = KernelStats{};
    retiredTotals = KernelStats{};
    retiredLaunches = 0;
    launchCounter = 0;
    accessIds = 0;
    nowCycle = 0;
    memCycle = 0;
    memAccum = 0.0;
    skippedTotal = 0;

    for (auto &sm : sms)
        sm->hardReset();
    reqXbar.reset();
    respXbar.reset();
    for (auto &dram : drams)
        dram->reset();
    resetCalendar();
    for (auto &front : l2) {
        front.cache->resetAll();
        if (front.mshr)
            front.mshr->reset();
    }
    for (auto &checker : checkers)
        checker->reset();
    for (trace::TraceSink *sink : attachedSinks)
        sink->clear();
    if (spanCollector != nullptr)
        spanCollector->clear();
    if (telemetrySampler != nullptr)
        telemetrySampler->reset();
}

KernelStats
GpuMachine::cumulativeStats()
{
    settleSleepingSms();
    KernelStats totals = retiredTotals;
    // Iteration order over the hash map is irrelevant: the fold is a
    // plain commutative sum, so the result is deterministic.
    for (const auto &[slot, launch] : active)
        totals.accumulate(*launch.stats);
    return totals;
}

std::size_t
GpuMachine::prtOccupancy() const
{
    std::size_t fill = 0;
    for (const auto &sm : sms)
        fill += sm->prtOccupancy();
    return fill;
}

std::size_t
GpuMachine::prtOccupancy(SmRange range) const
{
    RCOAL_ASSERT(range.first + range.count <= cfg.numSms,
                 "SM range [%u, %u) out of range", range.first,
                 range.first + range.count);
    std::size_t fill = 0;
    for (unsigned s = range.first; s < range.first + range.count; ++s)
        fill += sms[s]->prtOccupancy();
    return fill;
}

namespace {

/** Pre-resolved instrument pointers for the machine's pull collector. */
struct MachineCells
{
    telemetry::Counter *simCycles = nullptr;
    telemetry::Counter *kernelsLaunched = nullptr;
    telemetry::Counter *kernelsRetired = nullptr;
    telemetry::Counter *warpInstructions = nullptr;
    telemetry::Counter *memInstructions = nullptr;
    telemetry::Counter *coalescedAccesses = nullptr;
    telemetry::Counter *prtStalls = nullptr;
    telemetry::Counter *icnStalls = nullptr;
    telemetry::Gauge *busySms = nullptr;
    telemetry::Gauge *residentKernels = nullptr;
    telemetry::Gauge *prtFill = nullptr;
    telemetry::Counter *reqPackets = nullptr;
    telemetry::Counter *respPackets = nullptr;
    telemetry::Gauge *reqQueued = nullptr;
    telemetry::Gauge *respQueued = nullptr;
    telemetry::Counter *l1Hits = nullptr;
    telemetry::Counter *l1Misses = nullptr;
    telemetry::Counter *l1SectorMisses = nullptr;
    telemetry::Counter *l1MshrMerges = nullptr;
    telemetry::Counter *l2Hits = nullptr;
    telemetry::Counter *l2Misses = nullptr;
    telemetry::Counter *l2SectorMisses = nullptr;
    telemetry::Counter *l2MshrMerges = nullptr;

    struct Partition
    {
        telemetry::Gauge *queueDepth = nullptr;
        telemetry::Counter *refreshes = nullptr;
        telemetry::Counter *violations = nullptr; ///< Checker-gated.
        /** Per bank: row hits, row misses, activates, precharges. */
        std::vector<std::array<telemetry::Counter *, 4>> banks;
    };
    std::vector<Partition> partitions;
};

} // namespace

void
GpuMachine::setTelemetry(telemetry::TelemetrySampler *sampler)
{
    telemetrySampler = sampler;
    if (sampler == nullptr)
        return;
    sampler->alignAfter(nowCycle);

    telemetry::MetricRegistry &reg = sampler->registry();
    auto cells = std::make_shared<MachineCells>();
    cells->simCycles = &reg.counter("rcoal_sim_cycles_total",
                                    "Core cycles simulated");
    cells->kernelsLaunched = &reg.counter(
        "rcoal_kernels_launched_total", "Kernel launches started");
    cells->kernelsRetired = &reg.counter(
        "rcoal_kernels_retired_total",
        "Kernel launches completed and taken");
    cells->residentKernels = &reg.gauge(
        "rcoal_kernels_resident",
        "Launches currently resident (incl. completed-but-untaken)");
    cells->busySms = &reg.gauge(
        "rcoal_sm_busy", "SMs currently allocated to a launch");
    reg.gauge("rcoal_sm_total", "SMs in the machine")
        .set(static_cast<double>(cfg.numSms));
    cells->warpInstructions = &reg.counter(
        "rcoal_warp_instructions_total",
        "Warp instructions issued across all launches");
    cells->memInstructions = &reg.counter(
        "rcoal_mem_instructions_total",
        "Memory warp instructions issued across all launches");
    cells->coalescedAccesses = &reg.counter(
        "rcoal_coalesced_accesses_total",
        "Coalesced memory accesses generated (loads + stores)");
    cells->prtStalls = &reg.counter(
        "rcoal_sm_prt_stall_cycles_total",
        "Cycles memory issue stalled on a full PRT");
    cells->icnStalls = &reg.counter(
        "rcoal_sm_icn_stall_cycles_total",
        "Cycles the LD/ST head stalled on interconnect backpressure");
    cells->prtFill = &reg.gauge(
        "rcoal_prt_occupancy",
        "Live pending-request-table entries, summed over SMs");
    reg.gauge("rcoal_prt_capacity",
              "Pending-request-table entries, summed over SMs")
        .set(static_cast<double>(cfg.prtEntries) *
             static_cast<double>(cfg.numSms));

    const telemetry::MetricRegistry::Labels l1_labels{{"level", "l1"}};
    const telemetry::MetricRegistry::Labels l2_labels{{"level", "l2"}};
    cells->l1Hits = &reg.counter("rcoal_cache_hits_total",
                                 "Cache lookups that hit", l1_labels);
    cells->l1Misses = &reg.counter("rcoal_cache_misses_total",
                                   "Cache lookups that missed", l1_labels);
    cells->l1SectorMisses = &reg.counter(
        "rcoal_cache_sector_misses_total",
        "Misses with the line resident but a sector invalid", l1_labels);
    cells->l1MshrMerges = &reg.counter(
        "rcoal_mshr_merges_total",
        "Misses merged into an in-flight MSHR entry", l1_labels);
    cells->l2Hits = &reg.counter("rcoal_cache_hits_total",
                                 "Cache lookups that hit", l2_labels);
    cells->l2Misses = &reg.counter("rcoal_cache_misses_total",
                                   "Cache lookups that missed", l2_labels);
    cells->l2SectorMisses = &reg.counter(
        "rcoal_cache_sector_misses_total",
        "Misses with the line resident but a sector invalid", l2_labels);
    cells->l2MshrMerges = &reg.counter(
        "rcoal_mshr_merges_total",
        "Misses merged into an in-flight MSHR entry", l2_labels);
    reg.gauge("rcoal_dram_backend_info",
              "Active DRAM backend personality (value is always 1)",
              telemetry::MetricRegistry::Labels{
                  {"backend", mem::dramBackendKindName(cfg.dramBackend)}})
        .set(1.0);

    const telemetry::MetricRegistry::Labels req_labels{{"xbar", "req"}};
    const telemetry::MetricRegistry::Labels resp_labels{
        {"xbar", "resp"}};
    cells->reqPackets = &reg.counter(
        "rcoal_xbar_packets_total",
        "Packets transferred through a crossbar", req_labels);
    cells->respPackets = &reg.counter(
        "rcoal_xbar_packets_total",
        "Packets transferred through a crossbar", resp_labels);
    cells->reqQueued = &reg.gauge(
        "rcoal_xbar_queued_packets",
        "Packets resident in a crossbar's port queues", req_labels);
    cells->respQueued = &reg.gauge(
        "rcoal_xbar_queued_packets",
        "Packets resident in a crossbar's port queues", resp_labels);

    cells->partitions.resize(cfg.numPartitions);
    for (unsigned p = 0; p < cfg.numPartitions; ++p) {
        const std::string part = strprintf("%u", p);
        const telemetry::MetricRegistry::Labels part_labels{
            {"partition", part}};
        MachineCells::Partition &pc = cells->partitions[p];
        pc.queueDepth = &reg.gauge(
            "rcoal_dram_queue_depth",
            "Unserviced requests queued at a DRAM partition",
            part_labels);
        pc.refreshes = &reg.counter(
            "rcoal_dram_refreshes_total",
            "All-bank refreshes issued by a DRAM partition",
            part_labels);
        if (p < checkers.size() && checkers[p] != nullptr) {
            pc.violations = &reg.counter(
                "rcoal_dram_protocol_violations_total",
                "DRAM protocol violations collected by the checker",
                part_labels);
        }
        pc.banks.resize(cfg.banksPerPartition);
        for (unsigned b = 0; b < cfg.banksPerPartition; ++b) {
            const telemetry::MetricRegistry::Labels bank_labels{
                {"partition", part}, {"bank", strprintf("%u", b)}};
            pc.banks[b] = {
                &reg.counter("rcoal_dram_row_hits_total",
                             "Row-buffer hits per DRAM bank",
                             bank_labels),
                &reg.counter("rcoal_dram_row_misses_total",
                             "Row-buffer misses per DRAM bank",
                             bank_labels),
                &reg.counter("rcoal_dram_activates_total",
                             "ACT commands per DRAM bank", bank_labels),
                &reg.counter("rcoal_dram_precharges_total",
                             "PRE commands per DRAM bank", bank_labels),
            };
        }
    }

    sampler->addCollector([this, cells](Cycle) {
        cells->simCycles->set(nowCycle);
        cells->kernelsLaunched->set(launchCounter);
        cells->kernelsRetired->set(retiredLaunches);
        cells->residentKernels->set(
            static_cast<double>(active.size()));
        cells->busySms->set(static_cast<double>(busySms()));
        const KernelStats totals = cumulativeStats();
        cells->warpInstructions->set(totals.warpInstructions);
        cells->memInstructions->set(totals.memInstructions);
        cells->coalescedAccesses->set(totals.coalescedAccesses);
        cells->prtStalls->set(totals.prtStallCycles);
        cells->icnStalls->set(totals.icnStallCycles);
        cells->l1Hits->set(totals.l1Hits);
        cells->l1Misses->set(totals.l1Misses);
        cells->l1SectorMisses->set(totals.l1SectorMisses);
        cells->l1MshrMerges->set(totals.mshrMerges);
        cells->l2Hits->set(totals.l2Hits);
        cells->l2Misses->set(totals.l2Misses);
        cells->l2SectorMisses->set(totals.l2SectorMisses);
        cells->l2MshrMerges->set(totals.l2MshrMerges);
        cells->prtFill->set(static_cast<double>(prtOccupancy()));
        cells->reqPackets->set(reqXbar.packetsTransferred());
        cells->respPackets->set(respXbar.packetsTransferred());
        cells->reqQueued->set(
            static_cast<double>(reqXbar.queuedPackets()));
        cells->respQueued->set(
            static_cast<double>(respXbar.queuedPackets()));
        for (unsigned p = 0; p < cfg.numPartitions; ++p) {
            MachineCells::Partition &pc = cells->partitions[p];
            pc.queueDepth->set(
                static_cast<double>(drams[p]->queuedRequests()));
            pc.refreshes->set(drams[p]->refreshes());
            if (pc.violations != nullptr) {
                pc.violations->set(
                    checkers[p]->violations().size());
            }
            const auto &bank_counters = drams[p]->bankCounters();
            for (unsigned b = 0; b < cfg.banksPerPartition; ++b) {
                pc.banks[b][0]->set(bank_counters[b].rowHits);
                pc.banks[b][1]->set(bank_counters[b].rowMisses);
                pc.banks[b][2]->set(bank_counters[b].activates);
                pc.banks[b][3]->set(bank_counters[b].precharges);
            }
        }
    });
}

bool
GpuMachine::rangeFree(SmRange range) const
{
    if (range.count == 0 || range.first + range.count > cfg.numSms)
        return false;
    for (unsigned s = range.first; s < range.first + range.count; ++s) {
        if (smBusy[s])
            return false;
    }
    return true;
}

unsigned
GpuMachine::busySms() const
{
#ifndef NDEBUG
    unsigned busy = 0;
    for (bool b : smBusy)
        busy += b ? 1 : 0;
    assert(busy == busyCount && "busy-SM counter drifted");
#endif
    return busyCount;
}

KernelStats *
GpuMachine::statsForSlot(std::uint32_t slot)
{
    const auto it = active.find(slot);
    return it == active.end() ? nullptr : it->second.stats.get();
}

GpuMachine::LaunchId
GpuMachine::launchStream(const KernelSource &kernel, SmRange range,
                         std::uint64_t rng_stream_index)
{
    RCOAL_ASSERT(rangeFree(range),
                 "launch range [%u, %u) invalid or occupied", range.first,
                 range.first + range.count);
    ++launchCounter;
    const LaunchId id = launchCounter;
    RCOAL_ASSERT(id <= ~std::uint32_t{0}, "launch slot space exhausted");
    const auto slot = static_cast<std::uint32_t>(id);

    LaunchState &launch = active[slot];
    launch.id = id;
    launch.range = range;
    launch.stats = std::make_unique<KernelStats>();
    launch.startCycle = nowCycle;

    busyCount += range.count;
    for (unsigned s = range.first; s < range.first + range.count; ++s) {
        smBusy[s] = true;
        sms[s]->beginLaunch(launch.stats.get(), slot,
                            &launch.pendingWrites);
    }

    // Per-launch randomness: partitions are drawn once per warp at
    // launch time and stay fixed for the launch (Section IV-D).
    // Counter-based derivation: stream index k of a machine seeded s
    // draws the same partitions regardless of any other RNG activity,
    // so identically configured machines replay identical launches.
    Rng launch_rng = Rng::stream(cfg.seed, rng_stream_index);
    const unsigned num_warps = kernel.numWarps();
    RCOAL_ASSERT(num_warps > 0, "kernel has no warps");
    RCOAL_ASSERT(num_warps <= range.count * cfg.maxWarpsPerSm,
                 "kernel needs %u warps, its %u-SM range fits %u",
                 num_warps, range.count, range.count * cfg.maxWarpsPerSm);
    for (WarpId w = 0; w < num_warps; ++w) {
        sms[range.first + (w % range.count)]->assignWarp(
            w, &kernel.trace(w), partitioner.draw(launch_rng));
    }
    for (unsigned s = range.first; s < range.first + range.count; ++s) {
        if (!smWakes.awake(s))
            rewakeSm(s);
    }

    RCOAL_TRACE(machineSink, KernelLaunch, nowCycle, id, range.first,
                range.count);

    // Degenerate kernels (all-empty traces) retire immediately, matching
    // the old single-kernel loop that checked for idleness up front.
    checkCompletion(launch);
    return id;
}

GpuMachine::LaunchId
GpuMachine::launch(const KernelSource &kernel, SmRange range)
{
    return launchStream(kernel, range, launchCounter + 1);
}

void
GpuMachine::checkCompletion(LaunchState &launch)
{
    if (launch.completed)
        return;
    if (launch.pendingWrites > 0)
        return;
    for (unsigned s = launch.range.first;
         s < launch.range.first + launch.range.count; ++s) {
        if (!sms[s]->done(nowCycle))
            return;
    }
    launch.completed = true;
    ++completedUntaken;
    launch.endCycle = nowCycle;
    launch.stats->cycles = nowCycle - launch.startCycle;
    RCOAL_TRACE(machineSink, KernelRetire, nowCycle, launch.id,
                launch.stats->cycles, 0);
}

void
GpuMachine::WakeSet::reset(std::size_t n, Cycle now, bool all_awake)
{
    awakeBits = !all_awake ? 0 : ~std::uint64_t{0} >> (64 - n);
    staleBits = 0;
    wakeAt.assign(n, kInvalidCycle);
    settled.assign(n, now);
    minWake = kInvalidCycle;
}

Cycle
GpuMachine::WakeSet::next(Cycle now) const
{
    if (awakeBits != 0)
        return now + 1;
    Cycle bound = kInvalidCycle;
    for (const Cycle wake : wakeAt)
        bound = std::min(bound, wake);
    return bound;
}

void
GpuMachine::resetCalendar()
{
    smWakes.reset(cfg.numSms, nowCycle, !skipEnabled);
    xbarWakes.reset(2, nowCycle, !skipEnabled);
    dramWakes.reset(cfg.numPartitions, memCycle, !skipEnabled);
    smPinnedAt = kInvalidCycle;
    if (!skipEnabled)
        return;
    // Idle SMs and crossbars have no bound; a refreshing DRAM does.
    for (unsigned p = 0; p < cfg.numPartitions; ++p)
        dramWakes.update(p, drams[p]->workBound(memCycle), memCycle);
}

void
GpuMachine::rewakeSm(unsigned s)
{
    sms[s]->applySkippedCycles(
        smWakes.update(s, sms[s]->wakeCycle(nowCycle), nowCycle));
}

void
GpuMachine::settleSleepingSms()
{
    for (unsigned s = 0; s < cfg.numSms; ++s)
        sms[s]->applySkippedCycles(smWakes.settle(s, nowCycle));
}

void
GpuMachine::rereadXbar(unsigned x)
{
    Crossbar &xbar = x == 0 ? reqXbar : respXbar;
    xbar.advanceIdleCycles(
        xbarWakes.update(x, xbar.nextEventCycle(nowCycle), nowCycle));
}

void
GpuMachine::rereadStale()
{
    for (std::uint64_t stale = xbarWakes.staleMask(); stale != 0;
         stale &= stale - 1) {
        rereadXbar(static_cast<unsigned>(std::countr_zero(stale)));
    }
    for (std::uint64_t stale = dramWakes.staleMask(); stale != 0;
         stale &= stale - 1) {
        const auto p = static_cast<unsigned>(std::countr_zero(stale));
        dramWakes.update(p, drams[p]->workBound(memCycle), memCycle);
    }
}

void
GpuMachine::tick()
{
    ++nowCycle;
    RCOAL_ASSERT(nowCycle < kMaxCycles, "simulator deadlock suspected");

    // 1. Cores issue and inject: only the awake SMs. An SM whose wake
    // lies past the next cycle sleeps, since its ticks until then would
    // only repeat its stall counts.
    smWakes.wakeDue(nowCycle, [this](unsigned s, Cycle ticks) {
        sms[s]->applySkippedCycles(ticks);
    });
    for (std::uint64_t awake = smWakes.awakeMask(); awake != 0;
         awake &= awake - 1) {
        const auto s = static_cast<unsigned>(std::countr_zero(awake));
        StreamingMultiprocessor &sm = *sms[s];
        if (sm.tick(nowCycle))
            smPinnedAt = nowCycle;
        if (!skipEnabled)
            continue;
        const Cycle wake = sm.wakeCycle(nowCycle);
        if (wake > nowCycle + 1)
            smWakes.update(s, wake, nowCycle);
    }
    // An SM tick that moved something may have injected a packet, which
    // the request crossbar can grant icnLatency cycles later.
    if (smPinnedAt == nowCycle)
        xbarWakes.lower(0, nowCycle + cfg.icnLatency);

    // 2. Interconnect moves packets (core clock domain). A grant that
    // pops a sleeping SM's full input port lets its LD/ST head inject.
    xbarWakes.wakeDue(nowCycle, [this](unsigned x, Cycle ticks) {
        (x == 0 ? reqXbar : respXbar).advanceIdleCycles(ticks);
    });
    // A grantless tick proves the bound now; one that granted leaves the
    // crossbar awake until the calendar reads it.
    if (xbarWakes.awake(0)) {
        const std::uint64_t popped = reqXbar.tick(nowCycle);
        if (popped != 0)
            xbarWakes.lower(0);
        else if (skipEnabled)
            rereadXbar(0);
        for (std::uint64_t asleep = popped & ~smWakes.awakeMask();
             asleep != 0; asleep &= asleep - 1) {
            rewakeSm(static_cast<unsigned>(std::countr_zero(asleep)));
        }
    }
    if (xbarWakes.awake(1)) {
        if (respXbar.tick(nowCycle) != 0)
            xbarWakes.lower(1);
        else if (skipEnabled)
            rereadXbar(1);
    }

    // 3. Request-crossbar ejection into L2/DRAM. Iterating the ready
    // mask's set bits skips the (typically many) empty output ports.
    for (std::uint64_t ready = reqXbar.outputsReadyMask(); ready != 0;
         ready &= ready - 1) {
        const auto p = static_cast<unsigned>(std::countr_zero(ready));
        while (reqXbar.outputReady(p)) {
            // Peek is unnecessary: decide before popping via DRAM
            // capacity, since misses and writes go there.
            if (!drams[p]->canAccept())
                break;
            // A full L2 MSHR stalls ejection wholesale (the packet kind
            // is unknown before popping); entries free as fills return.
            if (cfg.l2Enabled && l2[p].mshr != nullptr &&
                !l2[p].mshr->canAllocate()) {
                break;
            }
            const std::uint32_t pkt = reqXbar.popOutputSlot(p);
            xbarWakes.lower(0, nowCycle + 1); // Its output has room.
            MemoryAccess &access = slab.at(pkt);
#if RCOAL_TRACE_ENABLED
            if (spanCollector != nullptr) {
                // Request-leg crossbar traversal closes here
                // (detail 0 = request leg, 1 = response leg).
                spanCollector->stampWarp(
                    spanNamespace, access.launchSlot, access.warpId,
                    spans::SpanStage::Crossbar,
                    static_cast<std::uint16_t>(p),
                    access.spanXbarInject, nowCycle, 0,
                    access.tag == AccessTag::LastRoundLookup);
            }
            // Armed here, resolved by the partition at its first
            // command issue for this access (see MemoryAccess).
            access.spanDramStart = kInvalidCycle;
#endif
            if (cfg.l2Enabled && !access.isWrite) {
                KernelStats *owner = statsForSlot(access.launchSlot);
                const mem::AccessOutcome outcome =
                    l2[p].cache->access(access.blockAddr, access.bytes);
                RCOAL_TRACE(machineSink, CacheAccess, nowCycle, 2,
                            static_cast<unsigned>(outcome), access.id);
                if (outcome == mem::AccessOutcome::Hit) {
                    if (owner != nullptr)
                        ++owner->l2Hits;
                    l2[p].pendingHits.pushBackGrowing(
                        {nowCycle + cfg.l2.hitLatency, pkt});
                    continue;
                }
                if (owner != nullptr) {
                    ++owner->l2Misses;
                    if (outcome == mem::AccessOutcome::SectorMiss)
                        ++owner->l2SectorMisses;
                }
                if (l2[p].mshr != nullptr) {
                    if (l2[p].mshr->isPending(access.blockAddr)) {
                        if (owner != nullptr)
                            ++owner->l2MshrMerges;
                        const Addr block = access.blockAddr;
                        l2[p].mshr->merge(block, slab.take(pkt));
                        continue;
                    }
                    // Allocate a copy (space was checked before
                    // popping); the slab record stays the courier
                    // travelling to DRAM while the waiting requests
                    // ride the MSHR entry until the fill returns.
                    l2[p].mshr->allocate(access.blockAddr, access);
                }
            }
            // New work: the partition ticks at the next memory cycle.
            drams[p]->enqueueSlot(pkt, mapping.decode(access.blockAddr));
            dramWakes.lower(p, memCycle + 1);
        }
    }

    // 4. Memory clock domain: tick DRAM whenever the memory clock
    // crosses a core-cycle boundary (a faster-than-core memory clock
    // ticks multiple times per core cycle).
    memAccum += cfg.memClockMhz;
    while (memAccum >= cfg.coreClockMhz) {
        memAccum -= cfg.coreClockMhz;
        ++memCycle;
        dramWakes.wakeDue(memCycle, [](unsigned, Cycle) {});
        for (std::uint64_t awake = dramWakes.awakeMask(); awake != 0;
             awake &= awake - 1) {
            const auto p = static_cast<unsigned>(std::countr_zero(awake));
            if (drams[p]->tick(memCycle))
                dramWakes.lower(p);
            else if (skipEnabled)
                dramWakes.update(p, drams[p]->workBound(memCycle), memCycle);
        }
    }

    // 5. DRAM completions and L2 hit responses feed the response
    // crossbar (or retire immediately for writes).
    for (unsigned p = 0; p < cfg.numPartitions; ++p) {
        while (drams[p]->hasCompleted()) {
            const std::uint32_t pkt = drams[p]->popCompletedSlot();
            MemoryAccess &access = slab.at(pkt);
#if RCOAL_TRACE_ENABLED
            if (spanCollector != nullptr) {
                // DRAM device-service interval (first command issued
                // for the access -> data available), MEMORY clock
                // domain. The L2-MSHR courier attributes to the
                // primary request's span before dissolving below.
                spanCollector->stampWarp(
                    spanNamespace, access.launchSlot, access.warpId,
                    spans::SpanStage::DramService,
                    static_cast<std::uint16_t>(p),
                    access.spanDramStart, memCycle, 0,
                    access.tag == AccessTag::LastRoundLookup);
            }
#endif
            if (cfg.l2Enabled && !access.isWrite) {
                l2[p].cache->fill(access.blockAddr, access.bytes);
                if (l2[p].mshr != nullptr &&
                    l2[p].mshr->isPending(access.blockAddr)) {
                    // The courier dissolves; the MSHR entry holds the
                    // real requests (primary first).
                    const Addr block = access.blockAddr;
                    slab.free(pkt);
                    for (MemoryAccess &waiting :
                         l2[p].mshr->complete(block)) {
                        respBacklog[p].pushBackGrowing(
                            slab.allocate(std::move(waiting)));
                    }
                    continue;
                }
            }
            if (access.isWrite) {
                const auto it = active.find(access.launchSlot);
                if (it != active.end()) {
                    LaunchState &launch = it->second;
                    RCOAL_ASSERT(launch.pendingWrites > 0,
                                 "store retired twice for launch %llu",
                                 static_cast<unsigned long long>(
                                     launch.id));
                    --launch.pendingWrites;
                    TagStats &tag_stats =
                        launch.stats->tagStats(access.tag);
                    tag_stats.lastComplete =
                        std::max(tag_stats.lastComplete, nowCycle);
                }
                slab.free(pkt);
                continue;
            }
            respBacklog[p].pushBackGrowing(pkt);
        }
        if (cfg.l2Enabled) {
            auto &pending = l2[p].pendingHits;
            while (!pending.empty() && pending.front().first <= nowCycle) {
                respBacklog[p].pushBackGrowing(pending.front().second);
                pending.pop_front();
            }
        }
        while (!respBacklog[p].empty() && respXbar.canInject(p)) {
            const std::uint32_t pkt = respBacklog[p].front();
            respBacklog[p].pop_front();
            MemoryAccess &resp = slab.at(pkt);
#if RCOAL_TRACE_ENABLED
            resp.spanXbarInject = nowCycle; // Response leg starts.
#endif
            respXbar.injectSlot(p, resp.smId, pkt, nowCycle);
            xbarWakes.lower(1, nowCycle + cfg.icnLatency);
        }
    }

    // 6. Deliver responses to the SMs (ready-mask iteration as above).
    for (std::uint64_t ready = respXbar.outputsReadyMask(); ready != 0;
         ready &= ready - 1) {
        const auto s = static_cast<unsigned>(std::countr_zero(ready));
        smPinnedAt = nowCycle;
        while (respXbar.outputReady(s)) {
            const std::uint32_t pkt = respXbar.popOutputSlot(s);
            xbarWakes.lower(1, nowCycle + 1); // Its output has room.
#if RCOAL_TRACE_ENABLED
            if (spanCollector != nullptr) {
                const MemoryAccess &resp = slab.at(pkt);
                spanCollector->stampWarp(
                    spanNamespace, resp.launchSlot, resp.warpId,
                    spans::SpanStage::Crossbar,
                    static_cast<std::uint16_t>(s),
                    resp.spanXbarInject, nowCycle, 1,
                    resp.tag == AccessTag::LastRoundLookup);
            }
#endif
            sms[s]->deliverResponseSlot(pkt, nowCycle);
        }
        // A completion that reopens the scan gate wakes a sleeping SM;
        // any other leaves its stall counts as they were.
        if (!smWakes.awake(s))
            rewakeSm(s);
    }

    // 7. Retire launches whose work has fully drained.
    for (auto &[slot, launch] : active)
        checkCompletion(launch);

    // 8. While an SM pins nextEventCycle() to now + 1 nothing reads
    // the rest of the calendar; once none does, its stale entries are
    // read, so each is its component's bound when the calendar is read.
    if (skipEnabled && smPinnedAt != nowCycle && smWakes.awakeMask() == 0)
        rereadStale();

    // 9. Telemetry sampling, post-tick so a sample sees this cycle's
    // final state. nextEventCycle() never exceeds the sampler bound, so
    // stepped and skipping execution both arrive here with nowCycle
    // exactly equal to the due sample cycle (sampleAt asserts it).
    if (telemetrySampler != nullptr &&
        nowCycle >= telemetrySampler->nextSampleCycle()) {
        telemetrySampler->sampleAt(nowCycle);
    }
}

Cycle
GpuMachine::nextEventCycle() const
{
    // A busy machine is pinned to now + 1 by its first awake component;
    // bail out as soon as the bound cannot drop further.
    const Cycle pinned = nowCycle + 1;
    Cycle bound = kInvalidCycle;
    // The sampler bound comes first: folding it in here is what makes
    // every skip path sample-safe without those paths knowing telemetry
    // exists.
    if (telemetrySampler != nullptr)
        bound = telemetrySampler->nextSampleCycle();
    if (bound <= pinned || smPinnedAt == nowCycle)
        return std::min(bound, pinned);
    // The core-domain calendar: the SMs and both crossbars.
    bound = std::min(
        {bound, smWakes.next(nowCycle), xbarWakes.next(nowCycle)});
    if (bound <= pinned)
        return bound;
    // The machine's own hand-offs: a request-crossbar ejection a DRAM
    // retirement made room for, and L2 hits. (A tick leaves no response
    // backlog the response crossbar could take.)
    for (unsigned p = 0; p < cfg.numPartitions; ++p) {
        if (reqXbar.outputReady(p) && drams[p]->canAccept())
            return pinned;
        if (cfg.l2Enabled && !l2[p].pendingHits.empty()) {
            bound = std::min(bound,
                             std::max(l2[p].pendingHits.front().first,
                                      pinned));
        }
    }
    return bound;
}

namespace {

/**
 * Replay of tick()'s clock-domain arithmetic: advance core cycles from
 * (@p now, @p mem, @p accum) toward @p target, stopping before the
 * first core cycle whose memory-clock crossing reaches @p mem_target.
 * Pure; both skipTo() and its const skipStopCycle() preview use it so
 * the two can never disagree on where a skip stops.
 */
struct ClockDomainSkip
{
    Cycle now;
    Cycle mem;
    double accum;
};

ClockDomainSkip
replaySkip(const GpuConfig &cfg, Cycle target, Cycle mem_target,
           Cycle now, Cycle mem, double accum)
{
    ClockDomainSkip state{now, mem, accum};
    while (state.now + 1 < target) {
        double acc = state.accum + cfg.memClockMhz;
        Cycle mc = state.mem;
        while (acc >= cfg.coreClockMhz) {
            acc -= cfg.coreClockMhz;
            ++mc;
        }
        if (mc >= mem_target)
            break; // This core cycle must really tick the DRAMs.
        ++state.now;
        state.mem = mc;
        state.accum = acc;
    }
    return state;
}

} // namespace

Cycle
GpuMachine::skipStopCycle(Cycle target) const
{
    return replaySkip(cfg, target, dramWakes.next(memCycle), nowCycle,
                      memCycle, memAccum)
        .now;
}

Cycle
GpuMachine::skipTo(Cycle target)
{
    // The DRAMs run in the memory-clock domain: the calendar's first
    // memory cycle at which any partition could change state stops the
    // skip before the core cycle whose memory-clock crossing reaches
    // it. The accumulator arithmetic replays tick()'s exact per-cycle
    // operation sequence (peek, then commit) so the clock-domain state
    // is bit-identical to stepping.
    const ClockDomainSkip state = replaySkip(
        cfg, target, dramWakes.next(memCycle), nowCycle, memCycle,
        memAccum);
    const Cycle new_now = state.now;
    const Cycle new_mem = state.mem;
    const double new_accum = state.accum;

    const Cycle skipped = new_now - nowCycle;
    if (skipped == 0)
        return 0;
    // An awake SM or crossbar pins nextEventCycle() to now + 1, so a
    // legal skip finds them all asleep; they book the window when they
    // wake or are read.
    RCOAL_ASSERT(smWakes.awakeMask() == 0 && xbarWakes.awakeMask() == 0 &&
                     (xbarWakes.staleMask() | dramWakes.staleMask()) == 0,
                 "skipTo(%llu) past a cycle a component must tick",
                 static_cast<unsigned long long>(target));
    nowCycle = new_now;
    memCycle = new_mem;
    memAccum = new_accum;
    skippedTotal += skipped;
    return skipped;
}

bool
GpuMachine::done(LaunchId id) const
{
    const auto it = active.find(static_cast<std::uint32_t>(id));
    RCOAL_ASSERT(it != active.end(), "unknown launch %llu",
                 static_cast<unsigned long long>(id));
    return it->second.completed;
}

Cycle
GpuMachine::finishCycle(LaunchId id) const
{
    const auto it = active.find(static_cast<std::uint32_t>(id));
    RCOAL_ASSERT(it != active.end(), "unknown launch %llu",
                 static_cast<unsigned long long>(id));
    RCOAL_ASSERT(it->second.completed,
                 "finishCycle for still-running launch %llu",
                 static_cast<unsigned long long>(id));
    return it->second.endCycle;
}

void
GpuMachine::runUntilDone(LaunchId id)
{
    while (!done(id)) {
        tick();
        if (!skipEnabled || done(id))
            continue;
        // A kInvalidCycle core bound means only DRAM-side events remain;
        // clamp to the deadlock cap so skipTo()'s mem-domain cutoff (or,
        // on true deadlock, the tick() assertion) still binds.
        const Cycle target = std::min(nextEventCycle(), kMaxCycles);
        if (target > nowCycle + 1)
            skipTo(target);
    }
}

KernelStats
GpuMachine::take(LaunchId id)
{
    const auto it = active.find(static_cast<std::uint32_t>(id));
    RCOAL_ASSERT(it != active.end(), "unknown launch %llu",
                 static_cast<unsigned long long>(id));
    LaunchState &launch = it->second;
    RCOAL_ASSERT(launch.completed, "launch %llu taken before completion",
                 static_cast<unsigned long long>(id));
    settleSleepingSms();
    KernelStats stats = *launch.stats;
    retiredTotals.accumulate(stats);
    ++retiredLaunches;
    --completedUntaken;
    for (unsigned s = launch.range.first;
         s < launch.range.first + launch.range.count; ++s) {
        sms[s]->reset();
        smBusy[s] = false;
        if (skipEnabled)
            smWakes.update(s, kInvalidCycle, nowCycle); // Idle.
    }
    // With the range's SMs asleep, nothing may pin the calendar now.
    if (skipEnabled)
        rereadStale();
    busyCount -= launch.range.count;
    active.erase(it);
    return stats;
}

} // namespace rcoal::sim
