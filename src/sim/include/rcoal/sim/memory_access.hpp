/**
 * @file
 * In-flight memory access representation and semantic tags.
 */

#ifndef RCOAL_SIM_MEMORY_ACCESS_HPP
#define RCOAL_SIM_MEMORY_ACCESS_HPP

#include <cstddef>
#include <cstdint>

#include "rcoal/common/types.hpp"
#include "rcoal/trace/event.hpp" // RCOAL_TRACE_ENABLED gate

namespace rcoal::sim {

/**
 * Semantic tag attached to memory instructions so statistics can
 * separate the access classes the attack analysis cares about
 * (in particular the last-round T4 lookups).
 */
enum class AccessTag : std::uint8_t
{
    Generic = 0,
    PlaintextLoad,
    RoundLookup,     ///< Te0..Te3 lookups, rounds 1..Nr-1.
    LastRoundLookup, ///< T4 lookups in the last round.
    CiphertextStore,
};

/** Number of distinct AccessTag values. */
inline constexpr std::size_t kNumAccessTags = 5;

/** Short name for an AccessTag. */
const char *accessTagName(AccessTag tag);

/**
 * One coalesced memory access travelling through the memory system.
 * Created by the SM's LD/ST unit, routed through the interconnect to a
 * memory partition, serviced by DRAM, and (for loads) returned to the SM.
 */
struct MemoryAccess
{
    std::uint64_t id = 0;     ///< Unique, monotonically increasing.
    Addr blockAddr = 0;       ///< Block-aligned address.
    std::uint32_t bytes = 0;  ///< Access size (the coalescing block).
    bool isWrite = false;
    AccessTag tag = AccessTag::Generic;

    unsigned smId = 0;        ///< Originating SM.
    /**
     * Originating launch slot on the machine. Lets the shared memory
     * system (DRAM write completions, L2 hit/miss counters) attribute
     * statistics to the right kernel when several are co-resident.
     */
    std::uint32_t launchSlot = 0;
    WarpId warpId = 0;        ///< Originating warp (global id).
    SubwarpId sid = 0;        ///< Subwarp that generated the access.
    /**
     * PRT entries this load holds until it completes: one per lane it
     * serves (stores and MSHR couriers hold none). The SM models the
     * PRT by its occupancy alone, so the count is all it releases.
     */
    std::uint32_t prtEntries = 0;

    Cycle issueCycle = 0;     ///< Core cycle the access left the LD/ST.

#if RCOAL_TRACE_ENABLED
    /**
     * Span-stamp scratch (rcoal::spans): entry cycle of the current
     * crossbar leg (core clock), and the memory cycle the first DRAM
     * command (precharge/activate/column) issued on this access's
     * behalf — kInvalidCycle until then. The DramService span
     * deliberately starts at first command, not queue entry: FR-FCFS
     * queue wait is cross-request contention (visible upstream in
     * PrtResidency), while first-command-to-data-return isolates the
     * device-service slice the access count serializes. Compiled out
     * with tracing so the TRACE=OFF hot path keeps its access size.
     */
    Cycle spanXbarInject = 0;
    Cycle spanDramStart = 0;
#endif
};

#if !RCOAL_TRACE_ENABLED
// Every queue hop moves a slot index, but the record itself is written
// at issue and read at each consuming hop: keep it to one cache line.
static_assert(sizeof(MemoryAccess) <= 64,
              "MemoryAccess outgrew one cache line");
#endif

} // namespace rcoal::sim

#endif // RCOAL_SIM_MEMORY_ACCESS_HPP
