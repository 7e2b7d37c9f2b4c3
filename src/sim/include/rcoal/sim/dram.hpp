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
 *
 * Accesses stay in the machine's shared AccessSlab: a partition takes
 * slot indices in (enqueueSlot) and hands them back out
 * (popCompletedSlot), and never copies a MemoryAccess.
 */

#ifndef RCOAL_SIM_DRAM_HPP
#define RCOAL_SIM_DRAM_HPP

#include <algorithm>
#include <vector>

#include "rcoal/common/state_arena.hpp"
#include "rcoal/mem/dram_backend.hpp"
#include "rcoal/sim/access_slab.hpp"
#include "rcoal/sim/address_mapping.hpp"
#include "rcoal/sim/invariant_divisor.hpp"
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
     * @param slab packet storage the enqueued slots live in; it must
     *        outlive the partition.
     */
    DramPartition(const GpuConfig &config, unsigned partition_id,
                  KernelStats *stats, AccessSlab &slab);

    /** True when the request queue has room. */
    bool canAccept() const { return queuedRequests() < queueDepth; }

    /**
     * Enqueue slab slot @p slot (must canAccept()). FR-FCFS age is the
     * enqueue order, so the arrival cycle is not needed.
     */
    void enqueueSlot(std::uint32_t slot, const DramLocation &loc);

    /**
     * Advance one memory cycle: retire finished bursts, fire a due
     * refresh, or issue up to one READ/WRITE, ACT and PRE. Returns true
     * when it did any of these.
     */
    bool tick(Cycle now);

    /**
     * Conservative lower bound (>= now + 1, memory-clock domain) on the
     * next cycle at which tick() could do work: retire a burst, fire a
     * refresh or its becoming due, or legally issue a command. Every
     * tick before it is a no-op until enqueueSlot() adds work. Draining
     * `completed` is the machine's work, not tick()'s, so the backlog
     * plays no part. kInvalidCycle when the partition is idle and
     * refresh is off.
     */
    Cycle workBound(Cycle now) const;

    /**
     * True when a serviced access awaits pickup. Every one retired at a
     * tick no later than any query that follows it, so all are ready.
     */
    bool hasCompleted() const { return !completed.empty(); }

    /**
     * Pop the oldest completed access's slab slot (must hasCompleted()).
     * Slots leave in retirement order.
     */
    std::uint32_t popCompletedSlot();

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
    void setChecker(trace::DramProtocolChecker *c) { checker = c; }

    /** Attach a sink for ACT/PRE/RD/REF trace events (memory domain). */
    void setTraceSink(trace::TraceSink *s) { traceSink = s; }

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

  private:
    /**
     * One queued request: the access itself stays in the slab; the
     * controller scans only this 48-byte record, so the per-memory-cycle
     * FR-FCFS walks touch a couple of contiguous cache lines instead of
     * chasing the accesses through the slab.
     */
    struct Request
    {
        std::uint32_t slot = kInvalidSlot; ///< Slab slot of the access.
        bool neededActivate = false; ///< Row was not open on arrival path.
        DramLocation loc;
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
     * FR-FCFS step: one walk of the queue selects this cycle's column,
     * ACT, and precharge winners — the same winners three separate
     * per-class scans would pick, proven in the implementation.
     * Returns true when any command issued.
     */
    bool issueCommands(Cycle now);
    /** Retire every burst finished by @p now into `completed`. */
    void retireBursts(Cycle now);
    bool maybeRefresh(Cycle now);
    bool refreshDue(Cycle now) const;

    unsigned
    groupOf(unsigned bank) const
    {
        return static_cast<unsigned>(bankGroups.remainder(bank));
    }
    unsigned
    pcOf(unsigned bank) const
    {
        return static_cast<unsigned>(banksPerPc.quotient(bank));
    }

    /**
     * Monotone deadline update: a bank timing deadline may only move
     * forward. Plain assignment could pull back a deadline an earlier
     * command pushed further out, and let a command issue early.
     */
    static void raiseTo(Cycle &deadline, Cycle candidate)
    {
        deadline = std::max(deadline, candidate);
    }

    unsigned id;
    mem::BackendTiming bt;
    std::size_t queueDepth;
    KernelStats *stats;
    AccessSlab &slab; ///< Where the enqueued slots live.

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
    /**
     * Slots of serviced accesses awaiting pickup, in retirement order.
     * A retire tick takes at most one burst, so no tie needs breaking:
     * completions strictly increase along each FIFO, and on HBM2's two
     * channels the per-channel tCCD window (= burstCycles) keeps either
     * bus from backing up, so every burst completes at its column issue
     * + tCL + burst, and column issues fall on distinct ticks.
     */
    SlotRing<std::uint32_t> completed;
    std::vector<Bank> banks;
    std::vector<BankCounters> bankStats; ///< Parallel to `banks`.
    std::uint64_t refreshCount = 0;
    InvariantDivisor bankGroups;      ///< bt.bankGroups.
    InvariantDivisor banksPerPc;      ///< Banks per pseudo-channel.
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
     * Exact min completion among bursts in flight, i.e. over the
     * in-flight FIFO heads (kInvalidCycle when none): gates the
     * per-tick retirement. Derived state — maintained at column issue
     * and retirement, never serialized (requires an idle partition).
     */
    Cycle earliestCompletion = kInvalidCycle;

    trace::DramProtocolChecker *checker = nullptr; ///< Optional referee.
    trace::TraceSink *traceSink = nullptr;         ///< Optional recorder.
};

} // namespace rcoal::sim

#endif // RCOAL_SIM_DRAM_HPP
