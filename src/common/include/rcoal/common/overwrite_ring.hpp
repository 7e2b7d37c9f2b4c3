/**
 * @file
 * OverwriteRing: fixed-capacity, allocation-free ring that keeps the
 * most recent records.
 *
 * Capacity is fixed at construction and append() never allocates; when
 * the ring is full the oldest retained record is overwritten and
 * counted in dropped(). snapshot() returns records in chronological
 * append order regardless of wrap, so two rings that saw the same
 * appends produce identical snapshots. trace::TraceSink and
 * spans::SpanSlab are both this ring.
 */

#ifndef RCOAL_COMMON_OVERWRITE_RING_HPP
#define RCOAL_COMMON_OVERWRITE_RING_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "rcoal/common/logging.hpp"
#include "rcoal/common/state_arena.hpp"

namespace rcoal::common {

template <typename T>
class OverwriteRing
{
  public:
    explicit OverwriteRing(std::size_t capacity) : ring(capacity)
    {
        RCOAL_ASSERT(capacity > 0, "ring capacity must be positive");
    }

    /** Append one record, overwriting the oldest when full. */
    void append(const T &record)
    {
        if (appended >= ring.size())
            ++overwritten; // The slot still holds a retained record.
        ring[next] = record;
        next = next + 1 == ring.size() ? 0 : next + 1;
        ++appended;
    }

    /** Records currently retained (min(totalAppended, capacity)). */
    std::size_t size() const
    {
        return appended < ring.size() ? static_cast<std::size_t>(appended)
                                      : ring.size();
    }

    std::size_t capacity() const { return ring.size(); }

    /** Records ever appended, including overwritten ones. */
    std::uint64_t totalAppended() const { return appended; }

    /**
     * Records lost to overwrite-oldest. An explicit counter (not
     * derived from totalAppended - size) so clear() provably resets
     * it: the derived form hides reset bugs.
     */
    std::uint64_t dropped() const { return overwritten; }

    /** Retained records, oldest first. */
    std::vector<T> snapshot() const
    {
        std::vector<T> out;
        out.reserve(size());
        // The oldest retained record sits at `next` once the ring has
        // wrapped, at 0 before that.
        const std::size_t start = appended > ring.size() ? next : 0;
        for (std::size_t i = 0; i < size(); ++i)
            out.push_back(ring[(start + i) % ring.size()]);
        return out;
    }

    /**
     * Forget everything; capacity is retained. The dead contents are
     * re-zeroed so a cleared ring serializes like a fresh one.
     */
    void clear()
    {
        next = 0;
        appended = 0;
        overwritten = 0;
        std::fill(ring.begin(), ring.end(), T{});
    }

    void saveState(ArenaWriter &w) const
    {
        w.pod(static_cast<std::uint64_t>(ring.size()));
        w.pod(static_cast<std::uint64_t>(next));
        w.pod(appended);
        w.pod(overwritten);
        w.podVector(ring);
    }

    void restoreState(ArenaReader &r)
    {
        const auto cap = r.take<std::uint64_t>();
        RCOAL_ASSERT(cap == ring.size(),
                     "ring restore: capacity mismatch (%llu vs %zu)",
                     static_cast<unsigned long long>(cap), ring.size());
        next = static_cast<std::size_t>(r.take<std::uint64_t>());
        appended = r.take<std::uint64_t>();
        overwritten = r.take<std::uint64_t>();
        r.podVector(ring);
    }

  private:
    std::vector<T> ring;
    std::size_t next = 0;          ///< Ring index of the next write.
    std::uint64_t appended = 0;    ///< Lifetime append count.
    std::uint64_t overwritten = 0; ///< Lifetime overwrite-drop count.
};

} // namespace rcoal::common

#endif // RCOAL_COMMON_OVERWRITE_RING_HPP
