/**
 * @file
 * SectoredCache implementation.
 */

#include "rcoal/mem/sectored_cache.hpp"

#include "rcoal/common/logging.hpp"
#include "rcoal/common/state_arena.hpp"

namespace rcoal::mem {

SectoredCache::SectoredCache(const sim::CacheGeometry &geometry)
    : geom(geometry)
{
    RCOAL_ASSERT(geom.lineBytes > 0 && geom.ways > 0 &&
                     geom.sectorBytes > 0,
                 "cache geometry must be positive");
    RCOAL_ASSERT(geom.lineBytes % geom.sectorBytes == 0,
                 "line size %u not a multiple of sector size %u",
                 geom.lineBytes, geom.sectorBytes);
    RCOAL_ASSERT(geom.lineBytes / geom.sectorBytes <= 32,
                 "at most 32 sectors per line (validity is a 32-bit mask)");
    const std::size_t total_lines = geom.sizeBytes / geom.lineBytes;
    RCOAL_ASSERT(total_lines >= geom.ways,
                 "cache too small for its associativity");
    numSets = total_lines / geom.ways;
    lines.resize(numSets * geom.ways);
    setAge.assign(numSets, 1); // 0 stays "never touched".
}

std::uint32_t
SectoredCache::maskFor(Addr addr, std::uint32_t bytes) const
{
    RCOAL_ASSERT(bytes > 0, "zero-byte cache access");
    const std::uint32_t offset =
        static_cast<std::uint32_t>(addr % geom.lineBytes);
    RCOAL_ASSERT(offset + bytes <= geom.lineBytes,
                 "access [%u, +%u) straddles a %u-byte line", offset,
                 bytes, geom.lineBytes);
    const std::uint32_t first = offset / geom.sectorBytes;
    const std::uint32_t last = (offset + bytes - 1) / geom.sectorBytes;
    const std::uint32_t count = last - first + 1;
    const std::uint32_t span =
        count >= 32 ? ~std::uint32_t{0} : ((1u << count) - 1u);
    return span << first;
}

SectoredCache::Line *
SectoredCache::findLine(std::uint64_t line_tag, std::size_t set)
{
    Line *base = &lines[set * geom.ways];
    for (std::uint32_t w = 0; w < geom.ways; ++w) {
        if (base[w].sectorMask != 0 && base[w].tag == line_tag)
            return &base[w];
    }
    return nullptr;
}

const SectoredCache::Line *
SectoredCache::findLine(std::uint64_t line_tag, std::size_t set) const
{
    const Line *base = &lines[set * geom.ways];
    for (std::uint32_t w = 0; w < geom.ways; ++w) {
        if (base[w].sectorMask != 0 && base[w].tag == line_tag)
            return &base[w];
    }
    return nullptr;
}

AccessOutcome
SectoredCache::access(Addr addr, std::uint32_t bytes)
{
    const std::uint64_t line_tag = lineOf(addr);
    const std::size_t set = setOf(line_tag);
    const std::uint32_t needed = maskFor(addr, bytes);
    Line *line = findLine(line_tag, set);
    if (line == nullptr) {
        ++missCount;
        return AccessOutcome::LineMiss;
    }
    if ((line->sectorMask & needed) != needed) {
        ++missCount;
        ++sectorMissCount;
        return AccessOutcome::SectorMiss;
    }
    line->age = setAge[set]++;
    ++hitCount;
    return AccessOutcome::Hit;
}

void
SectoredCache::fill(Addr addr, std::uint32_t bytes)
{
    const std::uint64_t line_tag = lineOf(addr);
    const std::size_t set = setOf(line_tag);
    const std::uint32_t sectors = maskFor(addr, bytes);
    ++fillCount;
    Line *line = findLine(line_tag, set);
    if (line == nullptr) {
        // Allocate-on-fill: pick an invalid way, else the LRU way.
        Line *base = &lines[set * geom.ways];
        Line *victim = nullptr;
        for (std::uint32_t w = 0; w < geom.ways; ++w) {
            if (base[w].sectorMask == 0) {
                victim = &base[w];
                break;
            }
            if (victim == nullptr || base[w].age < victim->age)
                victim = &base[w];
        }
        if (victim->sectorMask != 0)
            ++evictionCount;
        victim->tag = line_tag;
        victim->sectorMask = 0;
        line = victim;
    }
    line->sectorMask |= sectors;
    line->age = setAge[set]++;
}

bool
SectoredCache::contains(Addr addr, std::uint32_t bytes) const
{
    const std::uint64_t line_tag = lineOf(addr);
    const Line *line = findLine(line_tag, setOf(line_tag));
    if (line == nullptr)
        return false;
    const std::uint32_t needed = maskFor(addr, bytes);
    return (line->sectorMask & needed) == needed;
}

void
SectoredCache::clear()
{
    for (Line &line : lines)
        line = Line{};
    // setAge keeps counting: stamps only compare within a set and the
    // counter is monotone, so continuing is correct and cheaper.
}

void
SectoredCache::reserve()
{
    RCOAL_ASSERT(canReserve(), "streaming reservation overflow (%u)",
                 outstandingFills);
    ++outstandingFills;
}

void
SectoredCache::release()
{
    RCOAL_ASSERT(outstandingFills > 0,
                 "streaming reservation release underflow");
    --outstandingFills;
}

void
SectoredCache::resetAll()
{
    lines.assign(lines.size(), Line{});
    setAge.assign(numSets, 1);
    outstandingFills = 0;
    hitCount = 0;
    missCount = 0;
    sectorMissCount = 0;
    fillCount = 0;
    evictionCount = 0;
}

template <typename Arena>
void
SectoredCache::transferState(Arena &a)
{
    a.expect(static_cast<std::uint64_t>(lines.size()), "cache line count");
    for (Line &line : lines) {
        a.pod(line.tag);
        a.pod(line.sectorMask);
        a.pod(line.age);
    }
    a.podVector(setAge);
    RCOAL_ASSERT(setAge.size() == numSets, "set-age size mismatch");
    a.pod(outstandingFills);
    a.pod(hitCount);
    a.pod(missCount);
    a.pod(sectorMissCount);
    a.pod(fillCount);
    a.pod(evictionCount);
}

template void SectoredCache::transferState(common::ArenaWriter &);
template void SectoredCache::transferState(common::ArenaReader &);

} // namespace rcoal::mem
