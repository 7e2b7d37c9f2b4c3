/**
 * @file
 * Persistent GPU machine with concurrent-kernel residency.
 *
 * Gpu::launch() models the paper's one-shot victim: one kernel, a cold
 * machine, run to completion. A serving system needs the opposite shape:
 * a machine that stays up, hosts several kernels at once on disjoint SM
 * subsets, and lets them contend for the shared interconnect and DRAM
 * partitions — the contention is simulated, not approximated. GpuMachine
 * is that machine; Gpu::launch() is now a thin single-tenant wrapper over
 * it, so both paths share one timing model.
 *
 * Usage: launch() kernels on free SM ranges, tick() the machine one core
 * cycle at a time, poll done(), then take() the per-launch statistics
 * (which also frees the launch's SMs for the next kernel).
 */

#ifndef RCOAL_SIM_GPU_MACHINE_HPP
#define RCOAL_SIM_GPU_MACHINE_HPP

#include <algorithm>
#include <atomic>
#include <memory>
#include <unordered_map>
#include <vector>

#include "rcoal/common/rng.hpp"
#include "rcoal/core/partitioner.hpp"
#include "rcoal/mem/mshr.hpp"
#include "rcoal/mem/sectored_cache.hpp"
#include "rcoal/sim/address_mapping.hpp"
#include "rcoal/sim/config.hpp"
#include "rcoal/sim/dram.hpp"
#include "rcoal/sim/interconnect.hpp"
#include "rcoal/sim/kernel.hpp"
#include "rcoal/sim/sm.hpp"
#include "rcoal/sim/snapshot.hpp"
#include "rcoal/sim/stats.hpp"
#include "rcoal/trace/dram_checker.hpp"
#include "rcoal/trace/tracer.hpp"

namespace rcoal::telemetry {
class TelemetrySampler;
} // namespace rcoal::telemetry

namespace rcoal::sim {

/** A contiguous range of SMs a launch runs on. */
struct SmRange
{
    unsigned first = 0;
    unsigned count = 0;
};

/**
 * Process-wide simulator throughput counters, accumulated by every
 * GpuMachine on destruction. Benches report them (sim_cycles,
 * skipped_cycles, sim_cycles_per_second) in BENCH_engine.json so the
 * perf trajectory is tracked across PRs.
 */
struct SimCycleCounters
{
    std::atomic<std::uint64_t> simulated{0}; ///< Core cycles advanced.
    std::atomic<std::uint64_t> skipped{0};   ///< Of those, fast-forwarded.
};

/** The process-wide counter instance. */
SimCycleCounters &simCycleCounters();

/**
 * The persistent multi-kernel GPU.
 */
class GpuMachine
{
  public:
    using LaunchId = std::uint64_t;

    explicit GpuMachine(GpuConfig config);

    /** Folds this machine's cycle totals into simCycleCounters(). */
    ~GpuMachine();

    GpuMachine(const GpuMachine &) = delete;
    GpuMachine &operator=(const GpuMachine &) = delete;

    /** The active configuration. */
    const GpuConfig &config() const { return cfg; }

    /** Current core cycle. */
    Cycle now() const { return nowCycle; }

    /** True when @p range is valid and none of its SMs host a kernel. */
    bool rangeFree(SmRange range) const;

    /** SMs currently allocated to resident kernels. */
    unsigned busySms() const;

    /** Live PRT fill of the SMs in @p range (0 for a retired range). */
    std::size_t prtOccupancy(SmRange range) const;

    /**
     * Make @p kernel resident on @p range (which must be free) and
     * return its launch id. The kernel draws its per-warp subwarp
     * partitions from Rng::stream(config.seed, @p rng_stream_index), so
     * a launch's randomness is a pure function of (config, index)
     * regardless of machine history. @p kernel must stay alive until the
     * launch completes (the SMs execute its traces in place).
     */
    LaunchId launchStream(const KernelSource &kernel, SmRange range,
                          std::uint64_t rng_stream_index);

    /** launchStream() with the machine's own launch counter as index. */
    LaunchId launch(const KernelSource &kernel, SmRange range);

    /** Advance the whole machine one core cycle. */
    void tick();

    /**
     * Conservative lower bound (> now()) on the next core cycle at
     * which any core-clock component — SM, crossbar, L2 hit queue,
     * response backlog — could change state, evaluated right after a
     * tick(). kInvalidCycle when only DRAM-side (memory-clock) events
     * remain; skipTo() enforces that bound itself, so callers pass the
     * core bound (clamped to a finite ceiling) straight in.
     */
    Cycle nextEventCycle() const;

    /**
     * Fast-forward the machine so the next tick() executes core cycle
     * @p target — or an earlier cycle if a DRAM memory-clock event
     * intervenes. Only legal when the cycles jumped over are provably
     * uneventful, i.e. @p target must not exceed nextEventCycle(). The
     * clock-domain state (memCycle/memAccum) is advanced by replaying
     * the exact per-cycle accumulator arithmetic of tick(); nothing
     * else moves, since every component is asleep and books the window
     * when it next wakes or is read. Returns the cycles skipped.
     */
    Cycle skipTo(Cycle target);

    /**
     * The core cycle skipTo(@p target) would stop at — its memory-clock
     * cutoff applied — without mutating any state. A caller driving
     * several machines on one clock (rcoal::fleet) queries every
     * machine, takes the minimum, and then skips them all to exactly
     * that common cycle, so no machine ever runs ahead of the shared
     * clock. Returns now() when no cycle can be skipped.
     */
    Cycle skipStopCycle(Cycle target) const;

    /** True when cycle skipping resolved on for this machine. */
    bool cycleSkippingEnabled() const { return skipEnabled; }

    /** Core cycles fast-forwarded so far (a subset of now()). */
    Cycle skippedCycles() const { return skippedTotal; }

    /** True when some completed launch still awaits take(). O(1). */
    bool anyCompletedUntaken() const { return completedUntaken != 0; }

    /** True when @p id has retired (all warps done, stores drained). */
    bool done(LaunchId id) const;

    /**
     * The core cycle completed launch @p id actually finished at (not
     * the cycle a caller happened to poll done()). Valid until take().
     */
    Cycle finishCycle(LaunchId id) const;

    /** tick() until @p id completes. */
    void runUntilDone(LaunchId id);

    /**
     * Collect the statistics of completed launch @p id and free its SM
     * range for reuse. cycles counts from launch to completion.
     */
    KernelStats take(LaunchId id);

    /**
     * Machine-level memory-system counters (DRAM row behaviour,
     * refreshes). Shared structures cannot be attributed to a single
     * tenant, so they accumulate here across all launches.
     */
    const KernelStats &memoryStats() const { return memStats; }

    /** Number of launches started so far. */
    std::uint64_t launchCount() const { return launchCounter; }

    /** True while any launch is resident. */
    bool anyResident() const { return !active.empty(); }

    /**
     * Attach (or with nullptr detach) a tracer: creates per-component
     * sinks ("sm0..", "xbar.req", "xbar.resp", "dram0..", "machine"),
     * sets the tracer's clock ratio, and wires every component. The
     * tracer must outlive the machine or be detached first.
     */
    void setTracer(trace::Tracer *t);

    /**
     * Attach (or with nullptr detach) a span collector (rcoal::spans):
     * wires every SM's warp-level stamp points and enables the
     * machine's crossbar/DRAM stage stamps. @p span_namespace
     * disambiguates launch slots when several machines (fleet
     * replicas) share one collector. Collector state rides along in
     * snapshot()/restore() and is cleared by reset().
     */
    void setSpanCollector(spans::SpanCollector *c,
                          std::uint32_t span_namespace = 0);

    spans::SpanCollector *spanCollectorPtr() const
    {
        return spanCollector;
    }

    /**
     * Create one protocol checker per DRAM partition and validate every
     * command as it issues. Independent of RCOAL_TRACE: checking is a
     * test-mode feature of every build.
     */
    void enableDramChecking(trace::DramProtocolChecker::Mode mode =
                                trace::DramProtocolChecker::Mode::Panic);

    /** The per-partition checkers (empty until enableDramChecking()). */
    const std::vector<std::unique_ptr<trace::DramProtocolChecker>> &
    dramCheckers() const
    {
        return checkers;
    }

    /**
     * Attach (or with nullptr detach) a telemetry sampler.  The machine
     * registers its instruments (cycle/launch counters, SM stall and
     * PRT-fill gauges, crossbar contention, per-bank DRAM counters) in
     * the sampler's registry with a pull collector, re-anchors the
     * sampler after now(), and from then on:
     *  - tick() fires the sampler exactly at each due sample cycle;
     *  - nextEventCycle() never exceeds nextSampleCycle(), so no
     *    cycle-skip path can jump over a sample point.
     * Together these make sampled telemetry land on identical cycles —
     * and identical values — with cycle skipping on or off.
     *
     * Cycle-skipping throughput counters (skippedCycles) are deliberately
     * NOT exported: they are the one machine quantity that legitimately
     * differs between the two modes.
     *
     * The sampler must outlive the machine or be detached first.
     */
    void setTelemetry(telemetry::TelemetrySampler *sampler);

    /**
     * Counter totals accumulated across launches: retired launches'
     * stats plus the live stats of still-resident ones. Monotone over
     * time, which is what the telemetry counters require. Not const:
     * it first books the stall cycles of SMs outside the wake set.
     */
    KernelStats cumulativeStats();

    /** Launches retired (taken) so far. */
    std::uint64_t retiredLaunchCount() const { return retiredLaunches; }

    /** Sum of live PRT occupancy across all SMs. */
    std::size_t prtOccupancy() const;

    /**
     * True when no kernel is resident and every component has drained:
     * the only machine states snapshot(), restore(), and reset()
     * accept. Between launches a machine is always quiescent.
     */
    bool quiescent() const;

    /**
     * Serialize the full mutable state into a fresh arena. Requires
     * quiescent(). The snapshot captures the warm memory hierarchy,
     * DRAM timing horizons, clock-domain phase, counters, and the
     * current seed — everything a fork needs to continue bit-exactly.
     * Not const: it first books the sleeping crossbars' rotation.
     */
    MachineSnapshot snapshot();

    /**
     * Overwrite this machine's state from @p snap. The machine must be
     * quiescent, structurally identical to the snapshot's config (all
     * fields except the seed), and have no telemetry sampler attached.
     * Adopts the snapshot's seed; call reseed() afterwards to diverge.
     */
    void restore(const MachineSnapshot &snap);

    /** Construct a new machine and restore() @p snap into it. */
    static std::unique_ptr<GpuMachine> fork(const MachineSnapshot &snap);

    /**
     * Replace the master seed. Launch randomness is a pure function of
     * (seed, launch stream index), so reseeding a forked machine gives
     * it an independent stream while keeping the warmed-up state.
     */
    void reseed(std::uint64_t seed);

    /**
     * Return to the freshly-constructed state: counters, clocks, warm
     * caches, DRAM timing, checkers, attached trace sinks, and an
     * attached telemetry sampler's recording. Requires quiescent().
     * Gated by the reset-vs-fresh byte-identity audit test.
     */
    void reset();

  private:
    /** Book-keeping for one resident (or completed-but-untaken) launch. */
    struct LaunchState
    {
        LaunchId id = 0;
        SmRange range;
        std::unique_ptr<KernelStats> stats; ///< Stable per-launch sink.
        std::uint64_t pendingWrites = 0;    ///< Stores not yet retired.
        Cycle startCycle = 0;
        Cycle endCycle = 0; ///< Cycle the work drained (once completed).
        bool completed = false;
    };

    /** Per-partition L2 front end (only populated when L2 is enabled). */
    struct L2Frontend
    {
        std::unique_ptr<mem::SectoredCache> cache;
        /** L2 MSHRs (populated when MSHR merging is enabled). */
        std::unique_ptr<mem::MshrTable> mshr;
        /** Hit responses' slab slots waiting out the hit latency. */
        SlotRing<std::pair<Cycle, std::uint32_t>> pendingHits;
    };

    /** Stats sink for @p slot; nullptr once the launch was taken. */
    KernelStats *statsForSlot(std::uint32_t slot);

    /** Mark @p launch completed if all of its work has drained. */
    void checkCompletion(LaunchState &launch);

    /**
     * One slice of the wake calendar (DESIGN decision 9): entry i is
     * awake, ticking every cycle of its clock, or asleep until
     * wakeAt[i]. A sleeping entry's ticks would only have repeated what
     * its settle replays (an SM's stall counts, a crossbar's rotation),
     * so they are booked lazily: settle(), update() and wakeDue() hand
     * back the cycles since settled[i] for the caller to replay. A stale
     * entry may lie below its component's bound (its tick did work, or
     * an input reached it); update() makes it exact again.
     */
    class WakeSet
    {
      public:
        /** @p n entries, all awake or all asleep and idle at @p now. */
        void reset(std::size_t n, Cycle now, bool all_awake);

        bool awake(unsigned i) const { return (awakeBits >> i & 1) != 0; }
        std::uint64_t awakeMask() const { return awakeBits; }
        std::uint64_t staleMask() const { return staleBits; }

        /** now + 1 while an entry is awake, else the earliest wake. */
        Cycle next(Cycle now) const;

        /**
         * Record entry i's bound, read at @p now right after its tick
         * or an input: it stays or becomes awake iff @p bound is
         * now + 1, else it sleeps until @p bound. An awake entry has
         * ticked at @p now. Returns the ticks a waking entry replays.
         */
        Cycle
        update(unsigned i, Cycle bound, Cycle now)
        {
            const std::uint64_t bit = std::uint64_t{1} << i;
            staleBits &= ~bit;
            if (bound <= now + 1)
                return wake(i, now);
            if ((awakeBits & bit) != 0) {
                awakeBits &= ~bit;
                settled[i] = now;
            }
            wakeAt[i] = bound;
            minWake = std::min(minWake, bound);
            return 0;
        }

        /**
         * Entry i did work, or an input reached it that it can act on at
         * @p wake: mark it stale, and wake it by then.
         */
        void
        lower(unsigned i, Cycle wake = kInvalidCycle)
        {
            staleBits |= std::uint64_t{1} << i;
            if (!awake(i) && wake < wakeAt[i]) {
                wakeAt[i] = wake;
                minWake = std::min(minWake, wake);
            }
        }

        /** Book sleeping entry i through @p through (0 when awake). */
        Cycle
        settle(unsigned i, Cycle through)
        {
            if (awake(i))
                return 0;
            RCOAL_ASSERT(through >= settled[i],
                         "entry %u settled through %llu, then back to %llu",
                         i, static_cast<unsigned long long>(settled[i]),
                         static_cast<unsigned long long>(through));
            const Cycle ticks = through - settled[i];
            settled[i] = through;
            return ticks;
        }

        /**
         * Wake every sleeping entry whose wake is due at @p now: it
         * ticks now, so @p replay(i, ticks) books it through now - 1.
         */
        template <typename Replay>
        void
        wakeDue(Cycle now, Replay replay)
        {
            if (now < minWake)
                return;
            Cycle next_wake = kInvalidCycle;
            for (unsigned i = 0; i < wakeAt.size(); ++i) {
                if (awake(i))
                    continue;
                if (wakeAt[i] <= now)
                    replay(i, wake(i, now - 1));
                else
                    next_wake = std::min(next_wake, wakeAt[i]);
            }
            minWake = next_wake;
        }

      private:
        /** Put entry i in the awake set; returns its unbooked ticks. */
        Cycle
        wake(unsigned i, Cycle through)
        {
            const Cycle ticks = settle(i, through);
            awakeBits |= std::uint64_t{1} << i;
            return ticks;
        }

        std::uint64_t awakeBits = 0;
        std::uint64_t staleBits = 0;
        std::vector<Cycle> wakeAt;  ///< Sleeping entry i: its bound.
        std::vector<Cycle> settled; ///< Entry i: last booked cycle.
        /** At most every sleeping wakeAt; wakeDue() makes it exact. */
        Cycle minWake = kInvalidCycle;
    };

    /** Start the calendar over: idle, or all awake when stepping. */
    void resetCalendar();

    /**
     * Re-read sleeping SM @p s's wakeCycle() after an input that can
     * lower it, waking it (settled through now()) when it is now + 1.
     */
    void rewakeSm(unsigned s);

    /** Book every sleeping SM's stall counts through now(). */
    void settleSleepingSms();

    /** Re-read crossbar @p x's bound (0 = request, 1 = response). */
    void rereadXbar(unsigned x);

    /** Re-read every stale crossbar and DRAM entry. */
    void rereadStale();

    GpuConfig cfg;
    core::SubwarpPartitioner partitioner;
    AddressMapping mapping;
    /**
     * The machine-wide packet store: every in-flight MemoryAccess lives
     * here and moves between the SMs, both crossbars, the L2 front ends
     * and the DRAM queues as a 32-bit slot index. Empty whenever the
     * machine is quiescent (asserted at snapshot/reset), so it is never
     * serialized.
     */
    AccessSlab slab;
    Crossbar reqXbar;
    Crossbar respXbar;
    std::vector<std::unique_ptr<StreamingMultiprocessor>> sms;
    std::vector<std::unique_ptr<DramPartition>> drams;
    std::vector<L2Frontend> l2;
    /**
     * DRAM completions the response crossbar could not yet take.
     * Unbounded, so they grow with pushBackGrowing() (and never shrink).
     */
    std::vector<SlotRing<std::uint32_t>> respBacklog;

    KernelStats memStats; ///< Machine-level DRAM counters.
    std::unordered_map<std::uint32_t, LaunchState> active;
    std::vector<bool> smBusy; ///< SM -> allocated to a launch.
    /**
     * The wake calendar (DESIGN decision 9): one WakeSet per kind of
     * component, in its own clock. tick() runs only the awake entries,
     * nextEventCycle() reads the core-domain minimum (SMs and the two
     * crossbars, entry 0 = reqXbar, 1 = respXbar), and skipTo() the
     * DRAM partitions' minimum, in memory cycles. An SM's bound is
     * read after each of its ticks and inputs. A crossbar or partition
     * whose tick did nothing has its bound read at once; one whose tick
     * did work, or that took an input (an inject, a pop, an enqueue),
     * stays awake and stale until the SMs stop pinning the machine to
     * now + 1, which is when the calendar's minimum is next read. With
     * cycle skipping off nothing ever parks: stepping is the all-awake
     * reference the skip-vs-step tests compare against.
     */
    WakeSet smWakes;
    WakeSet xbarWakes;
    WakeSet dramWakes;
    /**
     * The last cycle an SM tick moved something or a response reached
     * an SM: nextEventCycle() is now + 1 then, as it was when every SM
     * ticked every cycle, so skip decisions do not move.
     */
    Cycle smPinnedAt = kInvalidCycle;
    /**
     * Set bits of smBusy, maintained at launch and take: the serve and
     * fleet frontends read busySms() every loop step (asserted against
     * the walk in debug builds).
     */
    unsigned busyCount = 0;

    std::vector<std::unique_ptr<trace::DramProtocolChecker>> checkers;
    trace::DramProtocolChecker::Mode checkerMode =
        trace::DramProtocolChecker::Mode::Panic;
    trace::TraceSink *machineSink = nullptr; ///< Launch/retire events.
    /** Every sink setTracer() wired, so reset() can clear them. */
    std::vector<trace::TraceSink *> attachedSinks;
    spans::SpanCollector *spanCollector = nullptr;
    std::uint32_t spanNamespace = 0;
    telemetry::TelemetrySampler *telemetrySampler = nullptr;
    KernelStats retiredTotals; ///< Sum of all taken launches' stats.
    std::uint64_t retiredLaunches = 0;

    /** Launches completed but not yet taken (anyCompletedUntaken()). */
    std::size_t completedUntaken = 0;

    std::uint64_t launchCounter = 0;
    std::uint64_t accessIds = 0;
    Cycle nowCycle = 0;
    Cycle memCycle = 0;
    double memAccum = 0.0;
    bool skipEnabled = true;  ///< resolveCycleSkipping() at construction.
    Cycle skippedTotal = 0;   ///< Core cycles fast-forwarded.

    /** Hard cap to catch simulator deadlock; far above any real run. */
    static constexpr Cycle kMaxCycles = 2'000'000'000;
};

} // namespace rcoal::sim

#endif // RCOAL_SIM_GPU_MACHINE_HPP
