/**
 * @file
 * Per-component ring-buffer trace sink.
 *
 * A sink is a named common::OverwriteRing of events: recording never
 * allocates after construction and never blocks the simulation — when
 * the ring is full the oldest events are overwritten (and counted as
 * dropped), keeping the most recent window, which is the part a
 * timeline viewer or a post-mortem wants.
 */

#ifndef RCOAL_TRACE_SINK_HPP
#define RCOAL_TRACE_SINK_HPP

#include <string>
#include <utility>
#include <vector>

#include "rcoal/common/overwrite_ring.hpp"
#include "rcoal/trace/event.hpp"

namespace rcoal::trace {

/** Clock domain a sink's cycle stamps are expressed in. */
enum class ClockDomain
{
    Core,   ///< Core/interconnect clock.
    Memory, ///< DRAM command clock.
};

/**
 * One component's event ring: size(), capacity(), dropped(),
 * snapshot() and clear() are the ring's. clear() — and therefore
 * GpuMachine::reset(), which clears every attached sink — resets the
 * drop accounting along with the other per-kernel counters.
 */
class TraceSink : public common::OverwriteRing<TraceEvent>
{
  public:
    /**
     * @param name exporter-visible component name ("sm3", "dram0", ...).
     * @param domain clock domain of the recorded cycle stamps.
     * @param capacity ring size in events (must be > 0).
     */
    TraceSink(std::string name, ClockDomain domain, std::size_t capacity)
        : OverwriteRing(capacity),
          sinkName(std::move(name)),
          clockDomain(domain)
    {
    }

    /** Record one event (overwrites the oldest when full). */
    void record(EventKind kind, Cycle cycle, std::uint64_t a,
                std::uint64_t b, std::uint64_t c)
    {
        TraceEvent event;
        event.cycle = cycle;
        event.a = a;
        event.b = b;
        event.c = c;
        event.kind = kind;
        event.component = componentId;
        append(event);
    }

    /** Component index stamped on every event this sink records. */
    void setComponentId(std::uint16_t id) { componentId = id; }

    const std::string &name() const { return sinkName; }
    ClockDomain domain() const { return clockDomain; }

    /** Total events ever recorded (including overwritten ones). */
    std::uint64_t totalRecorded() const { return totalAppended(); }

  private:
    std::string sinkName;
    ClockDomain clockDomain;
    std::uint16_t componentId = 0;
};

} // namespace rcoal::trace

#endif // RCOAL_TRACE_SINK_HPP
