/**
 * @file
 * Streaming multiprocessor model.
 *
 * Each SM hosts a set of resident warps, issues up to issueWidth warp
 * instructions per cycle (one per warp scheduler, loose round-robin),
 * and owns the LD/ST path: the RCoal coalescer, the pending request
 * table with the sid field, the optional L1/MSHR, and the injection port
 * into the request crossbar.
 *
 * Warp state is split structure-of-arrays: the per-cycle issue scan
 * reads only dense parallel arrays (readyAt, pc, trace length,
 * memoized memory-instruction demand), with per-scheduler bitmasks of
 * issuable slots so the scan is find-first-set over a word instead of a
 * strided walk. The cold remainder (trace pointer, subwarp partition,
 * cached coalesce result) lives in a side vector touched only when an
 * instruction actually issues. In-flight accesses live in an
 * AccessSlab and move between the LD/ST queue, the crossbar, and the
 * local-response queue as 32-bit slot indices.
 */

#ifndef RCOAL_SIM_SM_HPP
#define RCOAL_SIM_SM_HPP

#include <memory>
#include <vector>

#include "rcoal/common/state_arena.hpp"
#include "rcoal/core/coalescer.hpp"
#include "rcoal/core/pending_request_table.hpp"
#include "rcoal/core/subwarp.hpp"
#include "rcoal/mem/mshr.hpp"
#include "rcoal/mem/sectored_cache.hpp"
#include "rcoal/sim/access_slab.hpp"
#include "rcoal/sim/address_mapping.hpp"
#include "rcoal/sim/interconnect.hpp"
#include "rcoal/sim/kernel.hpp"
#include "rcoal/sim/stats.hpp"

namespace rcoal::spans {
class SpanCollector;
} // namespace rcoal::spans

namespace rcoal::sim {

/**
 * One streaming multiprocessor.
 */
class StreamingMultiprocessor
{
  public:
    /**
     * @param config GPU configuration.
     * @param sm_id this SM's index (also its crossbar port).
     * @param request_xbar SM -> partition crossbar.
     * @param mapping address decoder (for routing).
     * @param access_id_counter shared unique-id source for accesses.
     * @param slab shared packet storage; when null the SM owns a
     *        private slab (standalone/test use).
     *
     * The statistics sink is bound per launch via beginLaunch(); an SM
     * belongs to exactly one resident kernel at a time, so the machine
     * rebinds it whenever it allocates the SM to a new launch.
     */
    StreamingMultiprocessor(const GpuConfig &config, unsigned sm_id,
                            Crossbar *request_xbar,
                            const AddressMapping *mapping,
                            std::uint64_t *access_id_counter,
                            AccessSlab *slab = nullptr);

    /**
     * Allocate this SM to a launch: bind its statistics sink, the
     * machine-visible launch slot stamped on every access it emits, and
     * the launch's outstanding-store counter (stores are fire-and-forget
     * from the SM's perspective; the machine decrements the counter when
     * the DRAM retires them, which is what lets it declare a launch
     * complete only once its writes drained).
     *
     * Requires the previous launch to have been reset().
     */
    void beginLaunch(KernelStats *launch_stats, std::uint32_t launch_slot,
                     std::uint64_t *pending_writes);

    /**
     * Return the SM to the free pool after its launch retired: all warps
     * finished and every queue drained (asserted). Scheduling state is
     * cleared so the next beginLaunch() starts from a cold core, matching
     * the one-launch-per-Gpu semantics the single-kernel path always had.
     */
    void reset();

    /**
     * Machine-level reset on top of reset(): additionally discard what
     * deliberately survives launch retirement — the warm L1 and the
     * MSHR merge counter — so the SM is byte-identical to a fresh one.
     */
    void hardReset();

    /**
     * Serialize all state that survives launch retirement (PRT, warm
     * L1, MSHR counters, scheduler/scan residue). Only legal between
     * launches (no resident warps, every queue drained).
     */
    void saveState(common::ArenaWriter &w) const;

    /** Restore state saved by saveState(); configuration must match. */
    void restoreState(common::ArenaReader &r);

    /** Make a warp resident with its per-launch subwarp partition. */
    void assignWarp(WarpId warp_id,
                    const std::vector<WarpInstruction> *warp_trace,
                    core::SubwarpPartition partition);

    /** Advance one core cycle: drain LD/ST, then issue instructions. */
    void tick(Cycle now);

    /**
     * Conservative lower bound (>= now + 1) on the next core cycle at
     * which a tick() could change SM state, evaluated after this cycle's
     * tick and response deliveries. now + 1 whenever this cycle was
     * eventful (issue, queue movement, response) or the LD/ST head could
     * inject next cycle; otherwise the earliest warp wake-up / local
     * response / trailing-ALU horizon. kInvalidCycle for an idle SM.
     *
     * Stall counters are the one per-cycle side effect a frozen window
     * repeats; the machine replays them via applySkippedCycles(), so
     * they do not pin the bound (except under an attached trace sink,
     * where the per-cycle SmStall events must really be emitted).
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Account for @p cycles skipped ticks during which the SM state was
     * frozen: replay this tick's stall-counter deltas once per skipped
     * cycle (each stepped cycle would have repeated them exactly).
     */
    void applySkippedCycles(Cycle cycles);

    /** A load response arrived from the memory system. */
    void deliverResponse(MemoryAccess access, Cycle now);

    /** A load response arrived as slab slot @p slot (freed here). */
    void deliverResponseSlot(std::uint32_t slot, Cycle now);

    /**
     * True when every resident warp has retired (including the latency
     * of a trailing ALU batch) and all queues have drained.
     */
    bool done(Cycle now) const;

    /** Number of resident warps. */
    std::size_t residentWarps() const { return warpsCold.size(); }

    /** Live PRT fill (entries holding an in-flight or pending lane). */
    std::size_t prtOccupancy() const { return prt.occupancy(); }

    /** PRT capacity (config.prtEntries). */
    std::size_t prtCapacity() const { return prt.capacity(); }

    const mem::SectoredCache *l1Cache() const { return l1.get(); }

    /**
     * Attach a sink for issue/stall/coalesce events (core domain). The
     * scan reopens so a stalled SM emits its per-cycle SmStall events.
     */
    void setTraceSink(trace::TraceSink *s)
    {
        traceSink = s;
        scanGate = 0;
    }

    /**
     * Attach a span collector (rcoal::spans); the SM stamps coalesce
     * and PRT-residency stages for warps whose launches registered a
     * span map. @p ns is the machine namespace (fleet replica index).
     */
    void
    setSpanCollector(spans::SpanCollector *c, std::uint32_t ns)
    {
        spanCollector = c;
        spanNamespace = ns;
    }

  private:
    /**
     * Warp state not touched by the per-cycle issue scan: read when an
     * instruction issues (or a memory instruction is first coalesced),
     * which is orders of magnitude rarer than the scan's stalled
     * retries in the saturated regime.
     */
    struct WarpCold
    {
        WarpId id = 0;
        const std::vector<WarpInstruction> *trace = nullptr;
        core::SubwarpPartition partition;
        /**
         * Coalesce result cached across stall retries of the current
         * memory instruction (recomputing it every stalled cycle
         * dominated the simulator profile). Valid iff pendingPc == pc.
         */
        std::vector<core::CoalescedAccess> pendingCoalesce;
        std::size_t pendingPc = ~std::size_t{0};
        unsigned pendingActiveLanes = 0;
    };

    struct LocalResponse
    {
        Cycle ready = 0;
        std::uint32_t slot = kInvalidSlot;
    };

    bool warpFinished(std::size_t slot) const
    {
        return warpPc[slot] >= warpTraceLen[slot] &&
               warpOutstanding[slot] == 0;
    }

    /** Clear warp @p slot's issuable bit once its trace is exhausted. */
    void retireFromScan(std::size_t slot)
    {
        if (useMasks) {
            issuableMask[slot % cfg.issueWidth] &=
                ~(std::uint64_t{1} << (slot / cfg.issueWidth));
        }
    }

    /**
     * Try to issue one instruction from warp @p slot; true on success.
     * The fast precheck rejects time-blocked warps and — via the
     * memoized demand arrays — memory instructions whose resource
     * stall persists, without touching the cold warp state or trace.
     */
    bool tryIssue(std::size_t slot, Cycle now);

    /**
     * The resource checks of warp @p slot's memoized memory
     * instruction: true when the LD/ST queue or the PRT cannot take it
     * this cycle. Counts a PRT stall, and lowers the matching demand
     * threshold (minLdstDemand / minPrtDemand) for the scan gate.
     */
    bool memoryStalled(std::size_t slot, Cycle now);

    /** Reopen the scan gate if a queue pop admits a blocked warp. */
    void ldstPopped()
    {
        if (ldstQueue.size() + minLdstDemand <= ldstQueueCapacity)
            scanGate = 0;
    }

    /** Issue a memory instruction; false when resources are exhausted. */
    bool issueMemory(std::size_t slot, const WarpInstruction &instr,
                     Cycle now);

    /** Advance the LD/ST queue head toward the memory system. */
    void drainLdst(Cycle now);

    /** Run the per-scheduler issue scan and refresh scanGate/scanWake. */
    void scanWarps(Cycle now);

    /** Finish one load access: free PRT, wake warp, record stats. */
    void finalizeLoad(const MemoryAccess &access, Cycle now);

    const GpuConfig &cfg;
    unsigned id;
    KernelStats *stats = nullptr;          ///< Bound by beginLaunch().
    std::uint32_t launchSlot = 0;          ///< Stamped on every access.
    std::uint64_t *pendingWrites = nullptr; ///< Launch's in-flight stores.
    Crossbar *reqXbar;
    const AddressMapping *map;
    std::uint64_t *nextAccessId;
    AccessSlab *slab;                    ///< Shared or ownSlab.get().
    std::unique_ptr<AccessSlab> ownSlab; ///< Fallback for standalone use.

    core::Coalescer coalescer;
    core::PendingRequestTable prt;
    /** Partition used for unprotected instructions (selective RCoal). */
    core::SubwarpPartition baselinePartition;
    SlotRing<std::uint32_t> ldstQueue; ///< Slab slots awaiting injection.
    std::size_t ldstQueueCapacity;

    std::unique_ptr<mem::SectoredCache> l1;
    std::unique_ptr<mem::MshrTable> mshr;
    /** L1-hit responses waiting their hit latency (ready ascending). */
    SlotRing<LocalResponse> localResponses;
    /**
     * Memoized L1 lookup for the LD/ST queue head: the tag probe (and
     * its hit/miss accounting) runs once per access id, so structural
     * stalls retrying the head — ICN backpressure, MSHR or reservation
     * exhaustion — cannot inflate the miss counters or re-age the set.
     */
    std::uint64_t l1LookupId = ~std::uint64_t{0};
    mem::AccessOutcome l1LookupOutcome = mem::AccessOutcome::Hit;

    /**
     * Structure-of-arrays warp scoreboard, indexed by warp slot. The
     * issue scan and response path read these; WarpCold holds the rest.
     * pendingMem[slot] flags a memoized memory instruction parked at
     * the current pc, with its demand mirrored in pendingCount (LD/ST
     * queue entries), pendingPrt (PRT entries), pendingLoad — so the
     * per-cycle stalled retry never leaves the arrays.
     */
    std::vector<Cycle> warpReadyAt;
    std::vector<std::uint32_t> warpPc;
    std::vector<std::uint32_t> warpTraceLen;
    std::vector<std::uint32_t> warpOutstanding;
    std::vector<WarpId> warpIds;
    std::vector<std::uint8_t> pendingMem;
    std::vector<std::uint8_t> pendingLoad;
    std::vector<std::uint32_t> pendingCount;
    std::vector<std::uint32_t> pendingPrt;
    std::vector<WarpCold> warpsCold;

    /**
     * Bit k of issuableMask[sched] is set iff warp slot
     * sched + k * issueWidth still has instructions to issue
     * (pc < trace length). Maintained at assignWarp and at the issue
     * that exhausts a trace; the scan iterates set bits instead of
     * probing every slot. Usable while each scheduler owns at most 64
     * slots (useMasks); the scalar walk remains as fallback.
     */
    std::vector<std::uint64_t> issuableMask;
    bool useMasks;

    /** Dense warp-id -> slot map (kNoSlot = not resident on this SM). */
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
    std::vector<std::uint32_t> warpIndex;
    std::vector<std::size_t> rrPointer; ///< Per-scheduler round robin.
    std::size_t unfinishedWarps = 0;    ///< Cached for O(1) done().
    Cycle busyUntil = 0;                ///< Max readyAt across warps.

    /**
     * Issue-scan gate: the next cycle the per-scheduler warp scan must
     * run under per-cycle stepping. An issuing scan re-arms it to
     * now + 1; a non-issuing scan arms it to the earliest warp wake-up
     * (kInvalidCycle when every pending warp is event-blocked), even
     * when it counted PRT stalls: until an event changes a verdict,
     * each closed-gate tick replays the scan's stall count
     * (scanPrtStalls) instead of rescanning. Events that can unblock a
     * warp reset it to 0: a new warp, a queue pop that fits
     * minLdstDemand, a load completion that frees minPrtDemand PRT
     * entries or drains its warp's loads (waitAllLoads). With a trace
     * sink attached a stalling scan still re-arms to now + 1, because
     * SmStall events are per cycle.
     */
    Cycle scanGate = 0;
    /**
     * Smallest LD/ST-queue demand among the warps the last scan found
     * blocked on queue space, and smallest PRT demand among those it
     * found blocked on PRT entries (kNoDemand when none). 0 means
     * "any pop or completion reopens the gate" (reset/restoreState).
     */
    static constexpr std::uint32_t kNoDemand = ~std::uint32_t{0};
    std::uint32_t minLdstDemand = 0;
    std::uint32_t minPrtDemand = 0;
    /** PRT stalls the last scan counted (replayed while gated). */
    std::uint64_t scanPrtStalls = 0;
    /**
     * Earliest time-blocked warp wake-up as of the last scan: the
     * state-change lower bound nextEventCycle() uses. Unlike scanGate
     * it ignores the re-arm to now + 1 after an issue or under a trace
     * sink with stalls; nextEventCycle() pins those cycles through
     * tickChanged and its own trace-sink rule.
     */
    Cycle scanWake = 0;
    bool tickChanged = false;       ///< This tick moved/issued something.
    bool responseSinceTick = false; ///< Delivery since this tick started.
    bool scanIssued = false;        ///< This tick's scan issued a warp.
    /**
     * Stalls THIS SM recorded during the current tick. KernelStats is
     * shared by every SM in a launch, so replaying a skipped window
     * from a counter diff would fold sibling SMs' stalls (and earlier
     * siblings' replays) into this SM's delta; per-SM tick counts are
     * the only safe basis for bulk replay.
     */
    std::uint64_t prtStallsTick = 0;
    std::uint64_t icnStallsTick = 0;

    std::vector<int> laneScratch;       ///< tid -> lane index scratch.
    trace::TraceSink *traceSink = nullptr;
    spans::SpanCollector *spanCollector = nullptr;
    std::uint32_t spanNamespace = 0;
};

} // namespace rcoal::sim

#endif // RCOAL_SIM_SM_HPP
