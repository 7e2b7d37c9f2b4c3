/**
 * @file
 * Sectored set-associative cache (Accel-Sim style).
 *
 * A line is divided into fixed-size sectors (4 x 32 B for a 128 B line)
 * and validity is tracked per sector: a lookup hits only when every
 * sector the access touches is valid, and a fill validates only the
 * sectors the response actually carries. This is the structure modern
 * GPU L1/L2 caches use — it keeps miss traffic at the 32 B granularity
 * the DRAM bursts serve instead of fetching whole lines.
 *
 * Tag-array only: the simulator never carries data values.
 *
 * Replacement is age-based pseudo-LRU over an inline fixed-capacity way
 * array (no per-access allocation — the per-set std::list the previous
 * Cache used allocated on every fill, which showed up on the serve hot
 * path). A monotone per-set age counter stamps every touch; the victim
 * is the valid way with the smallest stamp, which for the ways' touch
 * order is exactly LRU.
 *
 * The streaming-L1 policy ("allocate-on-fill with bounded reservations")
 * is expressed through the reservation interface: a miss does not
 * allocate a line — it takes a reservation, travels to memory, and the
 * returning fill both releases the reservation and allocates. Bounding
 * the outstanding reservations models the finite fill/WB buffering of a
 * streaming L1 without ever blocking a line behind an in-flight fill.
 */

#ifndef RCOAL_MEM_SECTORED_CACHE_HPP
#define RCOAL_MEM_SECTORED_CACHE_HPP

#include <cstdint>
#include <vector>

#include "rcoal/common/types.hpp"
#include "rcoal/sim/config.hpp"

namespace rcoal::mem {

/** Result of one cache lookup. */
enum class AccessOutcome : std::uint8_t
{
    Hit = 0,        ///< Line resident and every touched sector valid.
    SectorMiss = 1, ///< Line resident but a touched sector is invalid.
    LineMiss = 2,   ///< Tag not resident.
};

/**
 * Blocking-free sectored cache with inline age-counter LRU.
 */
class SectoredCache
{
  public:
    explicit SectoredCache(const sim::CacheGeometry &geometry);

    /**
     * Look up the @p bytes at @p addr (which must not straddle a line);
     * on a full hit the line's age stamp is refreshed. Counters are
     * updated (hits / misses / sectorMisses).
     */
    AccessOutcome access(Addr addr, std::uint32_t bytes);

    /**
     * Fill the sectors covering [@p addr, @p addr + @p bytes): allocate
     * the line if absent (evicting the set's LRU way when full) and OR
     * in the sector validity. Refreshes the age stamp.
     */
    void fill(Addr addr, std::uint32_t bytes);

    /** True when every touched sector is valid (no LRU update). */
    bool contains(Addr addr, std::uint32_t bytes) const;

    /** Invalidate everything (reservations are unaffected). */
    void clear();

    /**
     * Return the cache to its freshly-constructed state: lines,
     * per-set age stamps, reservations, and every counter. Unlike
     * clear(), which deliberately keeps the counters and ages, this is
     * the machine-reset path (reset-vs-fresh byte identity).
     */
    void resetAll();

    /** Snapshot walk: lines, ages, reservations, counters. */
    template <typename Arena>
    void transferState(Arena &a);

    unsigned hitLatency() const { return geom.hitLatency; }

    // Streaming reservations (allocate-on-fill bound).
    /** True when another miss may be put in flight. */
    bool canReserve() const
    {
        return outstandingFills < geom.streamingReservations;
    }
    /** Take a fill reservation (must canReserve()). */
    void reserve();
    /** Release a reservation (the fill arrived or was merged away). */
    void release();
    /** In-flight fills currently holding a reservation. */
    std::uint32_t reservedFills() const { return outstandingFills; }

    // Counters.
    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }
    /** Of misses(), those where the line was resident (sector-granular). */
    std::uint64_t sectorMisses() const { return sectorMissCount; }
    std::uint64_t fills() const { return fillCount; }
    std::uint64_t evictions() const { return evictionCount; }

    std::size_t sets() const { return numSets; }
    std::size_t ways() const { return geom.ways; }

  private:
    /**
     * One way. Invalid <=> sectorMask == 0 (allocate-on-fill means a
     * resident line always carries at least one valid sector).
     */
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint32_t sectorMask = 0;
        std::uint64_t age = 0; ///< Per-set touch stamp (monotone).
    };

    std::uint64_t lineOf(Addr addr) const { return addr / geom.lineBytes; }
    std::size_t setOf(std::uint64_t line) const { return line % numSets; }
    /** Sector-validity mask the span [addr, addr+bytes) requires. */
    std::uint32_t maskFor(Addr addr, std::uint32_t bytes) const;
    Line *findLine(std::uint64_t line_tag, std::size_t set);
    const Line *findLine(std::uint64_t line_tag, std::size_t set) const;

    sim::CacheGeometry geom;
    std::size_t numSets;
    std::vector<Line> lines;      ///< numSets x ways, set-major.
    std::vector<std::uint64_t> setAge; ///< Next touch stamp per set.
    std::uint32_t outstandingFills = 0;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
    std::uint64_t sectorMissCount = 0;
    std::uint64_t fillCount = 0;
    std::uint64_t evictionCount = 0;
};

} // namespace rcoal::mem

#endif // RCOAL_MEM_SECTORED_CACHE_HPP
