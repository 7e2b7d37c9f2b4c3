/**
 * @file
 * StreamingMultiprocessor implementation.
 */

#include "rcoal/sim/sm.hpp"

#include <algorithm>
#include <bit>

#include "rcoal/common/logging.hpp"
#include "rcoal/spans/collector.hpp"
#include "rcoal/trace/sink.hpp"

namespace rcoal::sim {

StreamingMultiprocessor::StreamingMultiprocessor(
    const GpuConfig &config, unsigned sm_id, Crossbar *request_xbar,
    const AddressMapping *mapping, std::uint64_t *access_id_counter,
    AccessSlab &shared_slab)
    : cfg(config),
      id(sm_id),
      reqXbar(request_xbar),
      map(mapping),
      nextAccessId(access_id_counter),
      slab(shared_slab),
      coalescer(config.coalesceBlockBytes),
      baselinePartition(core::SubwarpPartition::single(config.warpSize)),
      ldstQueue(4 * config.warpSize),
      ldstQueueCapacity(4 * config.warpSize),
      issuableMask(config.issueWidth, 0),
      useMasks((config.maxWarpsPerSm + config.issueWidth - 1) /
                   config.issueWidth <=
               64),
      rrPointer(config.issueWidth, 0)
{
    RCOAL_ASSERT(reqXbar && map && nextAccessId,
                 "SM wired without its collaborators");
    if (cfg.l1Enabled)
        l1 = std::make_unique<mem::SectoredCache>(cfg.l1);
    // The SM-side MSHR sits in front of the L1 (misses merge on the
    // block in flight); without an L1 every access travels to memory
    // individually and only the L2's own MSHR applies.
    if (cfg.mshrEnabled && cfg.l1Enabled)
        mshr = std::make_unique<mem::MshrTable>(cfg.mshrEntries);
    // One L1-hit push per tick and each entry retires after hitLatency
    // cycles, so at most hitLatency + 1 can ever be resident.
    localResponses.reset(l1 ? l1->hitLatency() + 2 : 1);
}

void
StreamingMultiprocessor::beginLaunch(KernelStats *launch_stats,
                                     std::uint32_t launch_slot,
                                     std::uint64_t *pending_writes)
{
    RCOAL_ASSERT(launch_stats != nullptr && pending_writes != nullptr,
                 "SM %u launch needs a stats sink and store counter", id);
    RCOAL_ASSERT(warpsCold.empty(),
                 "SM %u still hosts a previous launch", id);
    stats = launch_stats;
    launchSlot = launch_slot;
    pendingWrites = pending_writes;
}

void
StreamingMultiprocessor::reset()
{
    RCOAL_ASSERT(unfinishedWarps == 0 && ldstQueue.empty() &&
                     localResponses.empty() && prtUsed == 0 &&
                     (!mshr || mshr->occupancy() == 0) &&
                     (!l1 || l1->reservedFills() == 0),
                 "SM %u reset while work is in flight", id);
    l1LookupId = ~std::uint64_t{0};
    l1LookupOutcome = mem::AccessOutcome::Hit;
    for (WarpCold &warp : warpsCold) {
        warp.pendingCoalesce.clear();
        spareCoalesce.push_back(std::move(warp.pendingCoalesce));
    }
    warpsCold.clear();
    warpReadyAt.clear();
    warpPc.clear();
    warpTraceLen.clear();
    warpOutstanding.clear();
    warpIds.clear();
    pendingMem.clear();
    pendingLoad.clear();
    pendingCount.clear();
    pendingPrt.clear();
    std::fill(issuableMask.begin(), issuableMask.end(), 0);
    warpIndex.clear();
    std::fill(rrPointer.begin(), rrPointer.end(), 0);
    busyUntil = 0;
    scanGate = 0;
    minLdstDemand = 0;
    minPrtDemand = 0;
    // The replayed count must not leak into the next launch's stats.
    scanPrtStalls = 0;
    tickChanged = false;
    scanIssued = false;
    stats = nullptr;
    launchSlot = 0;
    pendingWrites = nullptr;
}

void
StreamingMultiprocessor::hardReset()
{
    RCOAL_ASSERT(warpsCold.empty(),
                 "SM %u hard reset while hosting a launch", id);
    // reset() (run at every launch retirement) already restored the
    // per-launch state; what survives it by design is the warm memory
    // hierarchy, which a machine-level reset must also discard.
    if (l1)
        l1->resetAll();
    if (mshr)
        mshr->reset();
}

void
StreamingMultiprocessor::saveState(common::ArenaWriter &w) const
{
    RCOAL_ASSERT(warpsCold.empty() && ldstQueue.empty() &&
                     localResponses.empty(),
                 "SM %u snapshot while hosting a launch", id);
    w.pod(l1LookupId);
    w.pod(static_cast<std::uint8_t>(l1LookupOutcome));
    w.pod(busyUntil);
    w.pod(scanGate);
    w.pod(static_cast<std::uint8_t>(l1 != nullptr));
    if (l1)
        l1->saveState(w);
    w.pod(static_cast<std::uint8_t>(mshr != nullptr));
    if (mshr)
        mshr->saveState(w);
}

void
StreamingMultiprocessor::restoreState(common::ArenaReader &r)
{
    RCOAL_ASSERT(warpsCold.empty() && ldstQueue.empty() &&
                     localResponses.empty(),
                 "SM %u restore while hosting a launch", id);
    r.pod(l1LookupId);
    l1LookupOutcome = static_cast<mem::AccessOutcome>(r.take<std::uint8_t>());
    r.pod(busyUntil);
    r.pod(scanGate);
    // Gate thresholds are derived state, not part of the snapshot.
    minLdstDemand = 0;
    minPrtDemand = 0;
    scanPrtStalls = 0;
    const bool had_l1 = r.take<std::uint8_t>() != 0;
    RCOAL_ASSERT(had_l1 == (l1 != nullptr),
                 "SM %u L1 presence mismatch on restore", id);
    if (l1)
        l1->restoreState(r);
    const bool had_mshr = r.take<std::uint8_t>() != 0;
    RCOAL_ASSERT(had_mshr == (mshr != nullptr),
                 "SM %u MSHR presence mismatch on restore", id);
    if (mshr)
        mshr->restoreState(r);
}

void
StreamingMultiprocessor::assignWarp(
    WarpId warp_id, const std::vector<WarpInstruction> *warp_trace,
    core::SubwarpPartition partition)
{
    RCOAL_ASSERT(stats != nullptr,
                 "SM %u assigned a warp before beginLaunch", id);
    RCOAL_ASSERT(warpsCold.size() < cfg.maxWarpsPerSm,
                 "SM %u over its warp limit", id);
    RCOAL_ASSERT(warp_trace->size() < kNoSlot,
                 "warp trace too long for the scoreboard");
    const std::size_t slot = warpsCold.size();
    if (warp_id >= warpIndex.size())
        warpIndex.resize(static_cast<std::size_t>(warp_id) + 1, kNoSlot);
    RCOAL_ASSERT(warpIndex[warp_id] == kNoSlot,
                 "warp %u assigned twice to SM %u", warp_id, id);
    warpIndex[warp_id] = static_cast<std::uint32_t>(slot);
    std::vector<core::CoalescedAccess> coalesce_buffer;
    if (!spareCoalesce.empty()) {
        coalesce_buffer = std::move(spareCoalesce.back());
        spareCoalesce.pop_back();
    }
    warpsCold.push_back(WarpCold{warp_id, warp_trace, std::move(partition),
                                 std::move(coalesce_buffer),
                                 ~std::size_t{0}, 0});
    warpReadyAt.push_back(0);
    warpPc.push_back(0);
    warpTraceLen.push_back(static_cast<std::uint32_t>(warp_trace->size()));
    warpOutstanding.push_back(0);
    warpIds.push_back(warp_id);
    pendingMem.push_back(0);
    pendingLoad.push_back(0);
    pendingCount.push_back(0);
    pendingPrt.push_back(0);
    if (!warp_trace->empty()) {
        ++unfinishedWarps;
        if (useMasks) {
            issuableMask[slot % cfg.issueWidth] |=
                std::uint64_t{1} << (slot / cfg.issueWidth);
        }
    }
    scanGate = 0; // New issue candidate: rescan next tick.
}

bool
StreamingMultiprocessor::issueMemory(std::size_t slot,
                                     const WarpInstruction &instr,
                                     Cycle now)
{
    const bool is_load = instr.op == WarpInstruction::Op::Load;
    WarpCold &warp = warpsCold[slot];
    if (warp.pendingPc != warpPc[slot]) {
        // Selective RCoal (Section VII): only instructions tagged as
        // vulnerable get the randomized partition.
        const bool protect =
            !cfg.selectiveRCoal ||
            (cfg.protectedTagMask &
             (1u << static_cast<unsigned>(instr.tag)));
        const core::SubwarpPartition &used =
            protect ? warp.partition : baselinePartition;
        coalescer.coalesceInto(instr.lanes, used, warp.pendingCoalesce);
        RCOAL_TRACE(traceSink, McuCoalesce, now, warp.id,
                    warp.pendingCoalesce.size(), used.numSubwarps());
        warp.pendingPc = warpPc[slot];
        warp.pendingActiveLanes = 0;
        for (const auto &lane : instr.lanes) {
            if (lane.active)
                ++warp.pendingActiveLanes;
        }
        // A lane straddling a block boundary lands in several accesses
        // and needs one PRT entry per touched block, so reserve by the
        // exact entry demand rather than the active-lane count. The
        // demand is mirrored into the hot arrays so stalled retries
        // are decided there (see tryIssue).
        std::size_t prt_entries = 0;
        for (const auto &coalesced : warp.pendingCoalesce)
            prt_entries += coalesced.threads.size();
        pendingMem[slot] = 1;
        pendingLoad[slot] = is_load ? 1 : 0;
        pendingCount[slot] =
            static_cast<std::uint32_t>(warp.pendingCoalesce.size());
        pendingPrt[slot] = static_cast<std::uint32_t>(prt_entries);
    }
    auto &accesses = warp.pendingCoalesce;
    if (accesses.empty()) {
        // All lanes inactive: the instruction is a no-op.
        warp.pendingPc = ~std::size_t{0};
        pendingMem[slot] = 0;
        return true;
    }
    // Cheap resource checks first: these run every stalled retry.
    if (memoryStalled(slot, now))
        return false;

    const unsigned active_lanes = warp.pendingActiveLanes;
    for (const auto &lane : instr.lanes) {
        RCOAL_ASSERT(lane.tid < cfg.warpSize, "lane tid %u out of range",
                     lane.tid);
    }

    TagStats &tag_stats = stats->tagStats(instr.tag);
    tag_stats.firstIssue = std::min(tag_stats.firstIssue, now);
    tag_stats.laneRequests += active_lanes;
    tag_stats.accesses += accesses.size();
    stats->coalescedAccesses += accesses.size();
    if (is_load)
        stats->loadAccesses += accesses.size();
    else
        stats->storeAccesses += accesses.size();
    ++stats->memInstructions;

    for (auto &coalesced : accesses) {
        MemoryAccess access;
        access.id = (*nextAccessId)++;
        access.blockAddr = coalesced.blockAddr;
        access.bytes = cfg.coalesceBlockBytes;
        access.isWrite = !is_load;
        access.tag = instr.tag;
        access.smId = id;
        access.launchSlot = launchSlot;
        access.warpId = warp.id;
        access.sid = coalesced.sid;
        access.issueCycle = now;
        if (is_load) {
            // One PRT entry per lane served (Fig. 11). Only the count
            // shapes timing, so the entries' contents are not modelled.
            access.prtEntries =
                static_cast<std::uint32_t>(coalesced.threads.size());
            prtUsed += access.prtEntries;
            RCOAL_ASSERT(prtUsed <= cfg.prtEntries,
                         "PRT full despite reservation check");
            ++warpOutstanding[slot];
        } else {
            ++*pendingWrites;
        }
        ldstQueue.push_back(slab.allocate(std::move(access)));
    }
#if RCOAL_TRACE_ENABLED
    if (spanCollector != nullptr) {
        // Coalesce stage: the record's width is the coalesced access
        // count — the LD/ST serialization cost RCoal randomizes.
        spanCollector->stampWarp(
            spanNamespace, launchSlot, warp.id,
            spans::SpanStage::Coalesce, static_cast<std::uint16_t>(id),
            now, now + accesses.size(),
            static_cast<std::uint32_t>(accesses.size()),
            instr.tag == AccessTag::LastRoundLookup);
    }
#endif
    warp.pendingCoalesce.clear();
    warp.pendingPc = ~std::size_t{0};
    pendingMem[slot] = 0;
    return true;
}

bool
StreamingMultiprocessor::memoryStalled(std::size_t slot,
                                       [[maybe_unused]] Cycle now)
{
    if (ldstQueue.size() + pendingCount[slot] > ldstQueueCapacity) {
        minLdstDemand = std::min(minLdstDemand, pendingCount[slot]);
        return true;
    }
    if (pendingLoad[slot] != 0 && prtFree() < pendingPrt[slot]) {
        minPrtDemand = std::min(minPrtDemand, pendingPrt[slot]);
        ++stats->prtStallCycles;
        ++scanPrtStalls;
        RCOAL_TRACE(traceSink, SmStall, now, 0, warpIds[slot], 0);
        return true;
    }
    return false;
}

bool
StreamingMultiprocessor::tryIssue(std::size_t slot, Cycle now)
{
    if (warpPc[slot] >= warpTraceLen[slot] || warpReadyAt[slot] > now)
        return false;
    // Stalled-retry fast path: the current memory instruction is
    // already coalesced and its resource demand mirrored in the
    // scoreboard arrays, so repeating yesterday's structural stall
    // never touches the cold warp state or the trace. The checks (and
    // their accounting) are exactly issueMemory's.
    if (pendingMem[slot] != 0 && memoryStalled(slot, now))
        return false;
    WarpCold &warp = warpsCold[slot];
    const WarpInstruction &instr = (*warp.trace)[warpPc[slot]];
    switch (instr.op) {
      case WarpInstruction::Op::Alu:
        if (instr.waitAllLoads && warpOutstanding[slot] > 0)
            return false;
        RCOAL_TRACE(traceSink, SmIssue, now, warp.id, warpPc[slot], 0);
        warpReadyAt[slot] = now + std::max(1u, instr.latency);
        busyUntil = std::max(busyUntil, warpReadyAt[slot]);
        ++warpPc[slot];
        ++stats->warpInstructions;
        if (warpPc[slot] >= warpTraceLen[slot]) {
            retireFromScan(slot);
            if (warpOutstanding[slot] == 0) {
                RCOAL_ASSERT(unfinishedWarps > 0,
                             "finished-warp underflow");
                --unfinishedWarps;
            }
        }
        scanIssued = true;
        tickChanged = true;
        return true;
      case WarpInstruction::Op::Load:
      case WarpInstruction::Op::Store:
        if (!issueMemory(slot, instr, now))
            return false;
        RCOAL_TRACE(traceSink, SmIssue, now, warp.id, warpPc[slot],
                    instr.op == WarpInstruction::Op::Load ? 1 : 2);
        warpReadyAt[slot] = now + 1;
        ++warpPc[slot];
        ++stats->warpInstructions;
        if (warpPc[slot] >= warpTraceLen[slot]) {
            retireFromScan(slot);
            if (warpOutstanding[slot] == 0) {
                RCOAL_ASSERT(unfinishedWarps > 0,
                             "finished-warp underflow");
                --unfinishedWarps;
            }
        }
        scanIssued = true;
        tickChanged = true;
        return true;
    }
    panic("invalid warp instruction opcode");
}

void
StreamingMultiprocessor::drainLdst(Cycle now)
{
    // Retire L1-hit responses whose latency elapsed.
    while (!localResponses.empty() && localResponses.front().ready <= now) {
        const std::uint32_t resp_slot = localResponses.front().slot;
        finalizeLoad(slab.at(resp_slot), now);
        slab.free(resp_slot);
        localResponses.pop_front();
        tickChanged = true;
    }

    if (ldstQueue.empty())
        return;
    const std::uint32_t head_slot = ldstQueue.front();
    MemoryAccess &head = slab.at(head_slot);

    // Loads may hit in the (optional) L1; writes are write-through,
    // no-allocate and always travel to memory.
    if (l1 && !head.isWrite) {
        if (head.id != l1LookupId) {
            l1LookupId = head.id;
            l1LookupOutcome = l1->access(head.blockAddr, head.bytes);
            RCOAL_TRACE(traceSink, CacheAccess, now, 1,
                        static_cast<unsigned>(l1LookupOutcome), head.id);
            if (l1LookupOutcome == mem::AccessOutcome::Hit) {
                ++stats->l1Hits;
            } else {
                ++stats->l1Misses;
                if (l1LookupOutcome == mem::AccessOutcome::SectorMiss)
                    ++stats->l1SectorMisses;
            }
        }
        if (l1LookupOutcome == mem::AccessOutcome::Hit) {
            localResponses.push_back(
                LocalResponse{now + l1->hitLatency(), head_slot});
            ldstQueue.pop_front();
            tickChanged = true;
            ldstPopped();
            return;
        }
        if (mshr) {
            if (mshr->isPending(head.blockAddr)) {
                // The merged load rides the in-flight fill's
                // reservation; no extra one is taken.
                const Addr block = head.blockAddr;
                mshr->merge(block, slab.take(head_slot));
                ++stats->mshrMerges;
                ldstQueue.pop_front();
                tickChanged = true;
                ldstPopped();
                return;
            }
            if (!mshr->canAllocate())
                return; // Structural stall; retry next cycle.
            if (!l1->canReserve())
                return; // Fill-buffer bound reached; retry next cycle.
            if (!reqXbar->canInject(id)) {
                ++stats->icnStallCycles;
                RCOAL_TRACE(traceSink, SmStall, now, 1, head.warpId, 0);
                return;
            }
            // The MSHR keeps a copy (with the PRT count); the slab
            // record becomes the courier travelling to memory.
            mshr->allocate(head.blockAddr, head);
            l1->reserve();
            ldstQueue.pop_front();
            tickChanged = true;
            ldstPopped();
            const unsigned dest = map->partitionOf(head.blockAddr);
            head.prtEntries = 0; // PRT freed via the MSHR entry.
#if RCOAL_TRACE_ENABLED
            head.spanXbarInject = now;
#endif
            reqXbar->injectSlot(id, dest, head_slot, now);
            return;
        }
        if (!l1->canReserve())
            return; // Fill-buffer bound reached; retry next cycle.
    }

    if (!reqXbar->canInject(id)) {
        ++stats->icnStallCycles;
        RCOAL_TRACE(traceSink, SmStall, now, 1, head.warpId, 0);
        return;
    }
    // An L1 read miss travelling to memory holds a fill reservation
    // until its response returns (allocate-on-fill).
    if (l1 && !head.isWrite)
        l1->reserve();
    const unsigned dest = map->partitionOf(head.blockAddr);
#if RCOAL_TRACE_ENABLED
    head.spanXbarInject = now;
#endif
    reqXbar->injectSlot(id, dest, head_slot, now);
    ldstQueue.pop_front();
    tickChanged = true;
    ldstPopped();
}

void
StreamingMultiprocessor::scanWarps(Cycle now)
{
    const std::size_t nwarps = warpsCold.size();
    minLdstDemand = kNoDemand;
    minPrtDemand = kNoDemand;
    scanPrtStalls = 0;

    // One issue slot per scheduler; warp slot w belongs to scheduler
    // w % issueWidth (the 16x2 SIMT organization of Table I).
    for (unsigned sched = 0; sched < cfg.issueWidth && sched < nwarps;
         ++sched) {
        // Slots sched, sched+issueWidth, ... belong to this scheduler.
        const std::size_t count =
            (nwarps - sched + cfg.issueWidth - 1) / cfg.issueWidth;
        if (cfg.scheduler == SchedulerPolicy::GreedyThenOldest) {
            // GTO: keep issuing from the last warp; when it cannot
            // issue, fall back to the oldest (lowest-slot) ready warp.
            const std::size_t greedy = rrPointer[sched] % count;
            if (tryIssue(sched + greedy * cfg.issueWidth, now))
                continue;
            if (useMasks) {
                // Finished warps fail tryIssue without side effects,
                // so walking only the issuable bits (in the same
                // ascending order) is exact.
                std::uint64_t m = issuableMask[sched];
                while (m != 0) {
                    const auto k = static_cast<std::size_t>(
                        std::countr_zero(m));
                    m &= m - 1;
                    if (k == greedy)
                        continue;
                    if (tryIssue(sched + k * cfg.issueWidth, now)) {
                        rrPointer[sched] = k;
                        break;
                    }
                }
            } else {
                for (std::size_t k = 0; k < count; ++k) {
                    if (k == greedy)
                        continue;
                    if (tryIssue(sched + k * cfg.issueWidth, now)) {
                        rrPointer[sched] = k;
                        break;
                    }
                }
            }
            continue;
        }
        // Loose round robin: positions rr, rr+1, ... wrapping, which
        // with the issuable mask is a find-first-set over the bits at
        // or above rr, then the bits below it.
        if (useMasks) {
            const std::size_t rr = rrPointer[sched] % count;
            const std::uint64_t m = issuableMask[sched];
            const std::uint64_t ge_rr = ~std::uint64_t{0} << rr;
            std::uint64_t passes[2] = {m & ge_rr, m & ~ge_rr};
            bool issued = false;
            for (std::uint64_t pass : passes) {
                while (pass != 0) {
                    const auto k = static_cast<std::size_t>(
                        std::countr_zero(pass));
                    pass &= pass - 1;
                    if (tryIssue(sched + k * cfg.issueWidth, now)) {
                        rrPointer[sched] = (k + 1) % count;
                        issued = true;
                        break;
                    }
                }
                if (issued)
                    break;
            }
        } else {
            for (std::size_t k = 0; k < count; ++k) {
                const std::size_t slot =
                    sched +
                    ((rrPointer[sched] + k) % count) * cfg.issueWidth;
                if (tryIssue(slot, now)) {
                    rrPointer[sched] = (rrPointer[sched] + k + 1) % count;
                    break;
                }
            }
        }
    }

    // Earliest wake-up among time-blocked warps. Warps blocked on
    // events (queue space, PRT entries, outstanding loads) do not
    // contribute: the events that free them reset scanGate themselves.
    Cycle wake = kInvalidCycle;
    for (std::size_t i = 0; i < nwarps; ++i) {
        if (warpPc[i] < warpTraceLen[i] && warpReadyAt[i] > now)
            wake = std::min(wake, warpReadyAt[i]);
    }
    bool rescan = scanIssued;
#if RCOAL_TRACE_ENABLED
    rescan |= traceSink != nullptr && scanPrtStalls != 0;
#endif
    scanGate = rescan ? now + 1 : wake;
}

void
StreamingMultiprocessor::applySkippedCycles(Cycle cycles)
{
    if (warpsCold.empty() || cycles == 0)
        return;
    // The only side effect a frozen SM's tick has is its stall count:
    // the closed gate's replay, and an ICN stall for a head behind the
    // full port (wakeCycle() lies ahead only while the port is full).
    stats->prtStallCycles += scanPrtStalls * cycles;
    if (!ldstQueue.empty())
        stats->icnStallCycles += cycles;
}

void
StreamingMultiprocessor::finalizeLoad(const MemoryAccess &access, Cycle now)
{
    RCOAL_ASSERT(access.prtEntries <= prtUsed,
                 "SM %u releases %u PRT entries with %zu held", id,
                 access.prtEntries, prtUsed);
    prtUsed -= access.prtEntries;
    RCOAL_ASSERT(access.warpId < warpIndex.size() &&
                     warpIndex[access.warpId] != kNoSlot,
                 "response for unknown warp %u", access.warpId);
    const std::size_t slot = warpIndex[access.warpId];
    RCOAL_ASSERT(warpOutstanding[slot] > 0,
                 "warp %u has no outstanding loads", access.warpId);
    --warpOutstanding[slot];
    if (warpOutstanding[slot] == 0 && warpPc[slot] >= warpTraceLen[slot]) {
        RCOAL_ASSERT(unfinishedWarps > 0, "finished-warp underflow");
        --unfinishedWarps;
    }
    TagStats &tag_stats = stats->tagStats(access.tag);
    tag_stats.lastComplete = std::max(tag_stats.lastComplete, now);
#if RCOAL_TRACE_ENABLED
    if (spanCollector != nullptr) {
        // PRT residency: this logical access held its table entries
        // (and a warp-outstanding credit) from issue until now —
        // including MSHR-merged copies that never travelled.
        spanCollector->stampWarp(
            spanNamespace, access.launchSlot, access.warpId,
            spans::SpanStage::PrtResidency,
            static_cast<std::uint16_t>(id), access.issueCycle, now,
            access.prtEntries,
            access.tag == AccessTag::LastRoundLookup);
    }
#endif
    // Rescan only if this completion can unblock a warp: enough PRT
    // entries for the smallest PRT-blocked demand, or the warp's last
    // load back (a waitAllLoads ALU instruction may now issue).
    if (prtFree() >= minPrtDemand || warpOutstanding[slot] == 0)
        scanGate = 0;
}

void
StreamingMultiprocessor::deliverResponseSlot(std::uint32_t slot, Cycle now)
{
    const MemoryAccess &access = slab.at(slot);
    RCOAL_ASSERT(!access.isWrite, "write response delivered to SM %u", id);
    if (l1) {
        l1->release();
        l1->fill(access.blockAddr, access.bytes);
    }
    if (mshr) {
        const Addr block = access.blockAddr;
        slab.free(slot);
        for (MemoryAccess &waiting : mshr->complete(block))
            finalizeLoad(waiting, now);
        return;
    }
    finalizeLoad(access, now);
    slab.free(slot);
}

} // namespace rcoal::sim
