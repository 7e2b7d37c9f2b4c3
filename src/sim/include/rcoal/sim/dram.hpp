/**
 * @file
 * Memory partition model with FR-FCFS scheduling.
 *
 * Each partition owns a request queue, per-bank row-buffer state, and a
 * data bus per pseudo-channel. Scheduling is First-Ready
 * First-Come-First-Served: row-buffer hits are serviced ahead of older
 * row misses. Timing comes from a pluggable rcoal::mem::DramBackend
 * personality — GDDR5 (the Hynix parameters of Table I, the default),
 * GDDR6, or HBM2 — expressed in memory-clock cycles; the GPU top level
 * converts between clock domains. Bank-group-aware personalities add
 * long same-group column/ACT windows (tCCD_L/tRRD_L) on top of the
 * per-bank constraints, and HBM2 splits the banks across two
 * pseudo-channels with independent data buses.
 */

#ifndef RCOAL_SIM_DRAM_HPP
#define RCOAL_SIM_DRAM_HPP

#include <algorithm>
#include <memory>
#include <vector>

#include "rcoal/common/state_arena.hpp"
#include "rcoal/mem/dram_backend.hpp"
#include "rcoal/sim/access_slab.hpp"
#include "rcoal/sim/address_mapping.hpp"
#include "rcoal/sim/memory_access.hpp"
#include "rcoal/sim/stats.hpp"

namespace rcoal::trace {
class DramProtocolChecker;
class TraceSink;
} // namespace rcoal::trace

namespace rcoal::sim {

/**
 * One memory partition (memory controller + devices).
 */
class DramPartition
{
  public:
    /**
     * @param config GPU configuration (backend kind, queue depth, banks).
     * @param partition_id this partition's index.
     * @param stats kernel statistics sink (row hits/misses, ACT/PRE).
     * @param slab shared packet storage; when null the partition owns a
     *        private slab (standalone/test use via the value API).
     */
    DramPartition(const GpuConfig &config, unsigned partition_id,
                  KernelStats *stats, AccessSlab *slab = nullptr);

    /** True when the request queue has room. */
    bool canAccept() const { return queuedRequests() < queueDepth; }

    /** Enqueue an access (must canAccept()); @p now is the memory cycle. */
    void enqueue(MemoryAccess access, const DramLocation &loc, Cycle now);

    /** Enqueue slab slot @p slot (must canAccept()). */
    void enqueueSlot(std::uint32_t slot, const DramLocation &loc,
                     Cycle now);

    /** Advance one memory cycle: issue up to one READ/WRITE, ACT, PRE. */
    void tick(Cycle now);

    /**
     * Conservative lower bound (>= now + 1, memory-clock domain) on the
     * next cycle at which a tick() could change partition state: burst
     * retirement, a column/ACT/PRE issue becoming legal, or a refresh
     * becoming due/unblocked. kInvalidCycle when the partition is idle
     * and refresh is off. Under the legacy-timing test seam the bound
     * degenerates to now + 1 (no skipping guarantees).
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * True when a serviced access is ready to be picked up at memory
     * cycle @p now.
     */
    bool
    hasCompleted(Cycle now) const
    {
        for (const Request &req : completed) {
            if (req.completion <= now)
                return true;
        }
        return false;
    }

    /** Pop one completed access (must hasCompleted()). */
    MemoryAccess popCompleted(Cycle now);

    /** Pop one completed access's slab slot (must hasCompleted()). */
    std::uint32_t popCompletedSlot(Cycle now);

    /** True when no requests are queued, in flight, or completed. */
    bool idle() const
    {
        return queue.empty() && inFlightCount == 0 && completed.empty();
    }

    /**
     * Requests held against the queue depth: unserviced requests plus
     * serviced ones whose data burst has not finished. This is the
     * backpressure occupancy canAccept() tests, not the FR-FCFS
     * candidate count; on a saturated partition most of it is bursts
     * in flight.
     */
    std::size_t queuedRequests() const
    {
        return queue.size() + inFlightCount;
    }

    /**
     * Per-bank command counters, telemetry-grade: unlike the KernelStats
     * sink (machine-wide, per-launch attribution impossible for shared
     * structures), these resolve row behaviour to the individual bank.
     */
    struct BankCounters
    {
        std::uint64_t rowHits = 0;
        std::uint64_t rowMisses = 0;
        std::uint64_t activates = 0;
        std::uint64_t precharges = 0;
    };

    /** Counters for each of this partition's banks. */
    const std::vector<BankCounters> &bankCounters() const
    {
        return bankStats;
    }

    /** All-bank refreshes issued by this partition. */
    std::uint64_t refreshes() const { return refreshCount; }

    /** The backend timing personality this partition runs with. */
    const mem::BackendTiming &backendTiming() const { return bt; }

    /**
     * Attach a protocol checker; every subsequent ACT/RD/PRE/REF is
     * validated as it issues. Null detaches. Not gated by RCOAL_TRACE:
     * checking is a test-mode feature of every build.
     */
    void setChecker(trace::DramProtocolChecker *c)
    {
        checker = c;
        sleepUntil = 0;
    }

    /** Attach a sink for ACT/PRE/RD/REF trace events (memory domain). */
    void setTraceSink(trace::TraceSink *s)
    {
        traceSink = s;
        sleepUntil = 0;
    }

    /**
     * Return to the freshly-constructed state (must be idle()): bank
     * rows and timing deadlines, bank-group/pseudo-channel windows,
     * the refresh schedule, and the per-bank counters. Before the
     * reset audit none of this was restored between machine resets.
     */
    void reset();

    /** Serialize the full timing state at quiescence (must be idle()). */
    void saveState(common::ArenaWriter &w) const;

    /** Restore state saved by saveState() (must be idle()). */
    void restoreState(common::ArenaReader &r);

    /**
     * Test-only: reproduce the pre-fix timing bookkeeping (plain
     * `nextRead` assignment, no read-to-precharge protection, no
     * bank-group window bookkeeping, refresh that fires regardless of
     * tRAS or in-flight bursts) so regression tests can demonstrate the
     * protocol checker catches it on every backend.
     */
    void enableLegacyTimingForTest()
    {
        legacyTiming = true;
        sleepUntil = 0;
    }

  private:
    /**
     * One queued request: the access itself stays in the slab; the
     * controller scans only this ~48-byte record, so the per-memory-cycle
     * FR-FCFS walks touch a couple of contiguous cache lines instead of
     * chasing a deque of ~200-byte structs.
     */
    struct Request
    {
        std::uint32_t slot = kInvalidSlot; ///< Slab slot of the access.
        DramLocation loc;
        std::uint64_t seq = 0; ///< Enqueue order (arrival order).
        bool neededActivate = false; ///< Row was not open on arrival path.
        Cycle completion = kInvalidCycle; ///< Data available (mem cycles).
    };

    struct Bank
    {
        std::int64_t openRow = -1;   ///< -1 = precharged.
        Cycle nextRead = 0;          ///< Earliest next column command.
        Cycle nextActivate = 0;      ///< Earliest next ACT (tRP / tRC).
        Cycle prechargeAllowed = 0;  ///< tRAS from last ACT.
    };

    /** Issue @p req's column command and move a copy in flight. */
    void issueColumnAt(Request &req, Cycle now);
    void issueActivateAt(Request &req, Cycle now);
    void issuePrechargeAt(Request &req, Cycle now);
    /**
     * Fused FR-FCFS step (non-legacy hot path): one walk of the queue
     * selects this cycle's column, ACT, and precharge winners — the
     * same winners the three per-class scans pick, proven in the
     * implementation. Returns true when any command issued.
     */
    bool issueCommands(Cycle now);
    /// Per-class scans; retained as the legacy-timing seam's path and
    /// as the readable specification the fused walk is checked against.
    bool tryIssueColumn(Cycle now);
    bool tryIssueActivate(Cycle now);
    bool tryIssuePrecharge(Cycle now);
    /** Retire every burst finished by @p now into `completed`. */
    void retireBursts(Cycle now);
    bool maybeRefresh(Cycle now);
    bool refreshDue(Cycle now) const;

    /**
     * Conservative lower bound (>= now + 1) on the next memory cycle at
     * which tick() itself could do work: retire a burst, fire a
     * refresh, or legally issue a command. This is nextEventCycle()
     * minus the completed-backlog term (draining `completed` is the
     * machine's work, not tick()'s), and it is what the sleepUntil memo
     * caches: a tick that did nothing proves every tick before the
     * bound is a no-op, so their queue scans can be skipped outright.
     */
    Cycle workBound(Cycle now) const;

    unsigned groupOf(unsigned bank) const { return bank % bt.bankGroups; }
    unsigned pcOf(unsigned bank) const { return bank / banksPerPc; }

    /**
     * Monotone deadline update: a bank timing deadline may only move
     * forward. Plain assignment here is how the pre-fix rewind slipped
     * in (see enableLegacyTimingForTest()).
     */
    static void raiseTo(Cycle &deadline, Cycle candidate)
    {
        deadline = std::max(deadline, candidate);
    }

    unsigned id;
    mem::BackendTiming bt;
    std::size_t queueDepth;
    KernelStats *stats;
    AccessSlab *slab;                    ///< Shared or ownSlab.get().
    std::unique_ptr<AccessSlab> ownSlab; ///< Fallback for the value API.

    /** Unserviced requests, age-ordered, oldest first. */
    SlotRing<Request> queue;
    /**
     * Serviced requests whose burst is still on the bus, one FIFO per
     * pseudo-channel in column-issue order. Bursts serialize on their
     * channel's data bus, so completions strictly increase along each
     * FIFO: retirement pops heads and the FR-FCFS walks never step
     * over bursts in flight.
     */
    std::vector<SlotRing<Request>> inFlight;
    std::size_t inFlightCount = 0;   ///< Entries across `inFlight`.
    std::uint64_t nextSeq = 0;       ///< Next Request::seq.
    std::vector<Request> completed;   ///< Serviced, awaiting pickup.
    std::vector<Bank> banks;
    std::vector<BankCounters> bankStats; ///< Parallel to `banks`.
    std::uint64_t refreshCount = 0;
    unsigned banksPerPc = 0;          ///< Banks per pseudo-channel.
    std::vector<Cycle> busFreeAt;     ///< Data-bus horizon per PC.
    Cycle nextActivateAny = 0;        ///< tRRD across banks.
    /// Bank-group windows; stay 0 unless the backend is group-aware,
    /// which keeps the GDDR5 path byte-identical to the scalar model.
    std::vector<Cycle> nextColumnGroup;   ///< tCCD_L per bank group.
    std::vector<Cycle> nextActivateGroup; ///< tRRD_L per bank group.
    std::vector<Cycle> nextColumnAnyPc;   ///< tCCD_S per pseudo-channel.
    bool refreshEnabled = false;
    Cycle nextRefreshAt = 0;          ///< Next all-bank refresh.
    /**
     * Memo: tick() is a provable no-op before this memory cycle (see
     * workBound()). Purely derived state — never serialized, reset to 0
     * by anything that could create work or change observers (enqueue,
     * restore, checker/sink attach, the legacy-timing seam, which also
     * disables the memo entirely).
     */
    Cycle sleepUntil = 0;
    /**
     * Exact min completion among bursts in flight, i.e. over the
     * in-flight FIFO heads (kInvalidCycle when none): gates the
     * per-tick retirement. Derived state — maintained at column issue
     * and retirement, never serialized (requires an idle partition).
     */
    Cycle earliestCompletion = kInvalidCycle;

    trace::DramProtocolChecker *checker = nullptr; ///< Optional referee.
    trace::TraceSink *traceSink = nullptr;         ///< Optional recorder.
    bool legacyTiming = false; ///< Test seam: pre-fix bookkeeping.
};

} // namespace rcoal::sim

#endif // RCOAL_SIM_DRAM_HPP
