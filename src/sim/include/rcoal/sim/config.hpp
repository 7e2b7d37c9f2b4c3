/**
 * @file
 * Simulated GPU configuration (Table I of the paper).
 */

#ifndef RCOAL_SIM_CONFIG_HPP
#define RCOAL_SIM_CONFIG_HPP

#include <cstdint>
#include <string>

#include "rcoal/core/policy.hpp"

namespace rcoal::sim {

/**
 * GDDR5 timing parameters in memory-clock cycles (Hynix part, Table I).
 */
struct DramTiming
{
    unsigned tCL = 12;  ///< CAS latency (READ to data).
    unsigned tRP = 12;  ///< Precharge to ACT.
    unsigned tRC = 40;  ///< ACT to ACT, same bank.
    unsigned tRAS = 28; ///< ACT to PRE, same bank.
    unsigned tCCD = 2;  ///< Column command to column command.
    unsigned tRCD = 12; ///< ACT to READ/WRITE.
    unsigned tRRD = 6;  ///< ACT to ACT, different banks.
    unsigned tREFI = 1755; ///< Refresh interval (all banks).
    unsigned tRFC = 83;    ///< Refresh cycle duration.

    bool operator==(const DramTiming &other) const = default;
};

/** Warp scheduler selection policy. */
enum class SchedulerPolicy
{
    LooseRoundRobin, ///< Rotate through ready warps (the default).
    GreedyThenOldest, ///< Stick with the last warp; fall back to oldest.
};

/**
 * Which DRAM device personality the memory partitions run with.
 * Gddr5 consumes GpuConfig::timing verbatim (the paper's Table I
 * machine); Gddr6/Hbm2 bring their own timing sets plus bank-group /
 * pseudo-channel structure (see rcoal::mem::DramBackend).
 */
enum class DramBackendKind : std::uint8_t
{
    Gddr5 = 0,
    Gddr6,
    Hbm2,
};

/**
 * Sectored set-associative cache geometry (used when caches are
 * enabled). Lines are divided into sectorBytes-sized sectors with
 * per-sector validity; streamingReservations bounds the in-flight
 * allocate-on-fill misses of a streaming L1 (ignored by the L2).
 */
struct CacheGeometry
{
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t lineBytes = 128;
    std::uint32_t ways = 4;
    unsigned hitLatency = 4; ///< Core cycles.
    std::uint32_t sectorBytes = 32;
    std::uint32_t streamingReservations = 32;

    bool operator==(const CacheGeometry &other) const = default;
};

/**
 * Full GPU configuration. Defaults reproduce the paper's simulated
 * machine (Table I): 15 SMs, 32-thread warps with two schedulers per SM,
 * 6 GDDR5 memory controllers with FR-FCFS scheduling, 256-byte
 * partition interleaving, and caches/MSHRs disabled (Section VII).
 */
struct GpuConfig
{
    // Core features.
    unsigned numSms = 15;
    unsigned warpSize = 32;
    unsigned issueWidth = 2;      ///< Warp schedulers per SM (16x2 SIMT).
    unsigned maxWarpsPerSm = 48;
    unsigned aluLatency = 4;      ///< Default ALU op latency, core cycles.
    SchedulerPolicy scheduler = SchedulerPolicy::LooseRoundRobin;

    // Clocks (MHz). Interconnect runs at the core clock.
    double coreClockMhz = 1400.0;
    double memClockMhz = 924.0;

    // Coalescing.
    std::uint32_t coalesceBlockBytes = 64;
    /**
     * PRT capacity per SM LD/ST unit. 256 entries keep 8 fully-divergent
     * warp loads in flight, which makes execution time track the
     * coalesced-access count (the linear relationship of Fig. 5) instead
     * of being bound by load round-trip latency.
     */
    std::size_t prtEntries = 256;

    // Interconnect (one crossbar per direction).
    unsigned icnLatency = 8;      ///< Traversal latency, core cycles.
    std::size_t icnQueueDepth = 16;

    // Memory system.
    unsigned numPartitions = 6;
    std::uint32_t partitionInterleaveBytes = 256;
    unsigned banksPerPartition = 16;
    unsigned bankGroups = 4;
    std::uint32_t rowBytes = 2048;
    std::size_t dramQueueDepth = 32;
    unsigned burstCycles = 2;     ///< Data-bus occupancy per access.
    DramTiming timing{};
    /**
     * DRAM device personality (rcoal::mem::DramBackend). Gddr5 keeps
     * the historical Table I model byte-identical; Gddr6/Hbm2 swap in
     * their own timing and channel structure. Selectable per bench run
     * via --dram-backend.
     */
    DramBackendKind dramBackend = DramBackendKind::Gddr5;
    /**
     * Periodic all-bank refresh (tREFI/tRFC). Off by default: refresh
     * adds low-frequency timing noise that is irrelevant to the
     * coalescing channel and the paper's GPGPU-Sim configuration; turn
     * it on for substrate studies.
     */
    bool refreshEnabled = false;

    // Optional bandwidth-saving features (paper disables them).
    bool l1Enabled = false;
    bool l2Enabled = false;
    bool mshrEnabled = false;
    std::size_t mshrEntries = 32;   ///< Per-SM L1 MSHR blocks.
    std::size_t l2MshrEntries = 64; ///< Per-partition L2 MSHR blocks.
    CacheGeometry l1{};
    CacheGeometry l2{128 * 1024, 128, 8, 8};

    // The defense under evaluation.
    core::CoalescingPolicy policy{};

    /**
     * Section VII future work: apply the randomized-coalescing policy
     * only to memory instructions whose AccessTag bit is set in
     * protectedTagMask; everything else coalesces with the baseline
     * single-subwarp partition. Requires software support to identify
     * the vulnerable code (here: the semantic trace tags).
     */
    bool selectiveRCoal = false;

    /** Bit i protects AccessTag i (default: last-round lookups only). */
    std::uint32_t protectedTagMask = 1u << 3; // LastRoundLookup

    /**
     * Event-driven cycle skipping. When on, GpuMachine's wake calendar
     * ticks only the components whose bound has arrived, and
     * runUntilDone fast-forwards over stretches where none has. When
     * off, every component ticks every cycle: the all-awake reference
     * the skip-vs-step tests hold the calendar to. Timing is exact
     * either way (byte-identical KernelStats, traces and attack
     * results), so this is purely a simulator-throughput switch. Select
     * the reference with cycleSkipping=false, RCOAL_CYCLE_SKIPPING=0,
     * or a bench driver's --no-cycle-skipping flag.
     */
    bool cycleSkipping = true;

    /** Master seed for all simulator randomness. */
    std::uint64_t seed = 1;

    /**
     * Field-wise equality, seed included. Snapshot restore compares
     * with the seed masked out: the seed is the one field a fork may
     * legitimately change (GpuMachine::reseed).
     */
    bool operator==(const GpuConfig &other) const = default;

    /** The paper's baseline configuration. */
    static GpuConfig paperBaseline();

    /** Panics on inconsistent parameters. */
    void validate() const;

    /** Multi-line human-readable dump (used by the Table I bench). */
    std::string describe() const;
};

/**
 * Process-wide override for GpuConfig::cycleSkipping: 0 forces the
 * all-awake stepping reference, 1 forces skipping, -1 (default) clears
 * the override.
 * Bench CLIs set this from --no-cycle-skipping.
 */
void setCycleSkippingOverride(int forced);

/**
 * Resolve the effective cycle-skipping setting for a machine being
 * constructed: the process-wide override wins, then the
 * RCOAL_CYCLE_SKIPPING environment variable (0/off/false disables),
 * then @p config_flag.
 */
bool resolveCycleSkipping(bool config_flag);

} // namespace rcoal::sim

#endif // RCOAL_SIM_CONFIG_HPP
