/**
 * @file
 * StateArena: a relocatable, tagged byte buffer for machine snapshots.
 *
 * Snapshot/fork of the GPU machine works by serializing every mutable
 * component field into one contiguous arena at a quiescent point (no
 * resident kernels, every queue drained). A snapshot is then a single
 * allocation that can be shared read-only between threads, a fork is a
 * fresh machine restored from the arena, and byte equality of two
 * arenas is exactly state equality of the machines that produced them
 * (the reset-vs-fresh audit test relies on this).
 *
 * Layout is a flat sequence of regions, each framed as
 *
 *   [u32 tag][u64 payload size][payload bytes]
 *
 * with payloads written field-by-field (never whole structs with
 * padding, so arena bytes are deterministic). ArenaWriter appends and
 * back-patches region sizes; ArenaReader consumes with tag and size
 * checking.
 *
 * Writer and reader share one set of verbs, so each component states
 * its format once, as a member template walked by both:
 *
 *   template <typename Arena> void transferState(Arena &a);
 *
 * The writer copies each field into the arena, the reader copies it
 * back, and steps only a restore needs sit under
 * `if constexpr (Arena::kLoading)`.
 */

#ifndef RCOAL_COMMON_STATE_ARENA_HPP
#define RCOAL_COMMON_STATE_ARENA_HPP

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "rcoal/common/logging.hpp"

namespace rcoal::common {

/**
 * The snapshot byte buffer. Immutable once written; share via
 * std::shared_ptr<const StateArena>.
 */
class StateArena
{
  public:
    std::size_t sizeBytes() const { return data.size(); }
    const std::vector<std::byte> &bytes() const { return data; }

    /** Exact byte equality (state equality of the saved machines). */
    bool byteEqual(const StateArena &other) const
    {
        return data == other.data;
    }

  private:
    friend class ArenaWriter;
    friend class ArenaReader;
    std::vector<std::byte> data;
};

/**
 * Sequential writer. Regions may not nest.
 */
class ArenaWriter
{
  public:
    static constexpr bool kLoading = false;

    explicit ArenaWriter(StateArena &arena);

    /** Open a region with @p tag; close it with endRegion(). */
    void beginRegion(std::uint32_t tag);

    /** Close the current region, back-patching its payload size. */
    void endRegion();

    /** Append one trivially-copyable, padding-free value. */
    template <typename T>
    void
    pod(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "arena pod() needs a trivially copyable type");
        append(&value, sizeof(T));
    }

    /** Append a vector of padding-free PODs as [u64 count][raw]. */
    template <typename T>
    void
    podVector(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "arena podVector() needs trivially copyable elements");
        pod(static_cast<std::uint64_t>(v.size()));
        if (!v.empty())
            append(v.data(), v.size() * sizeof(T));
    }

    /** Append a map of PODs as [u64 count][key value]... in key order. */
    template <typename K, typename V>
    void
    podMap(const std::map<K, V> &m)
    {
        pod(static_cast<std::uint64_t>(m.size()));
        for (const auto &[key, value] : m) {
            pod(key);
            pod(value);
        }
    }

    /** Append a string as [u64 length][bytes]. */
    void string(const std::string &s);

    /** Append @p value, which the reader checks instead of loading. */
    template <typename T>
    void
    expect(const T &value, const char * /*what*/)
    {
        pod(value);
    }

  private:
    void append(const void *src, std::size_t n);

    StateArena &arena;
    std::size_t regionSizeAt; ///< Offset of the open region's size field.
    bool regionOpen = false;
};

/**
 * Sequential reader; the same walk that wrote the arena reads it back.
 */
class ArenaReader
{
  public:
    static constexpr bool kLoading = true;

    explicit ArenaReader(const StateArena &arena);

    /** Open the next region, asserting its tag is @p tag. */
    void beginRegion(std::uint32_t tag);

    /** Close the region, asserting its payload was fully consumed. */
    void endRegion();

    template <typename T>
    void
    pod(T &out)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "arena pod() needs a trivially copyable type");
        consume(&out, sizeof(T));
    }

    /** Read a pod() value by type (convenience for locals). */
    template <typename T>
    T
    take()
    {
        T value{};
        pod(value);
        return value;
    }

    template <typename T>
    void
    podVector(std::vector<T> &out)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "arena podVector() needs trivially copyable elements");
        const auto count = take<std::uint64_t>();
        out.resize(static_cast<std::size_t>(count));
        if (count > 0)
            consume(out.data(), out.size() * sizeof(T));
    }

    /** Replace @p out with a map written by ArenaWriter::podMap(). */
    template <typename K, typename V>
    void
    podMap(std::map<K, V> &out)
    {
        const auto count = take<std::uint64_t>();
        out.clear();
        for (std::uint64_t i = 0; i < count; ++i) {
            const auto key = take<K>();
            out.emplace_hint(out.end(), key, take<V>());
        }
    }

    void string(std::string &out);

    /**
     * Read a value the writer stored with expect() and assert it equals
     * @p value: a structural fact (a count, a presence flag) both
     * machines must agree on, named by @p what in the panic.
     */
    template <typename T>
    void
    expect(const T &value, const char *what)
    {
        static_assert(std::is_integral_v<T>,
                      "arena expect() compares integral values");
        const T stored = take<T>();
        RCOAL_ASSERT(stored == value,
                     "snapshot %s mismatch: arena holds %llu, this "
                     "machine has %llu",
                     what, static_cast<unsigned long long>(stored),
                     static_cast<unsigned long long>(value));
    }

    /** True when every byte of the arena has been consumed. */
    bool atEnd() const;

  private:
    void consume(void *dst, std::size_t n);

    const StateArena &arena;
    std::size_t cursor = 0;
    std::size_t regionEnd = 0; ///< One past the open region's payload.
    bool regionOpen = false;
};

} // namespace rcoal::common

#endif // RCOAL_COMMON_STATE_ARENA_HPP
