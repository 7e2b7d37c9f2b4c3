#include "rcoal/spans/collector.hpp"

#include <utility>

#include "rcoal/common/logging.hpp"
#include "rcoal/common/state_arena.hpp"

namespace rcoal::spans {

namespace {

std::uint64_t
launchKey(std::uint32_t ns, std::uint32_t slot)
{
    return (static_cast<std::uint64_t>(ns) << 32) | slot;
}

} // namespace

SpanCollector::SpanCollector() : SpanCollector(Config{}) {}

SpanCollector::SpanCollector(Config config)
    : cfg(config), slabStore(config.slabCapacity)
{
    RCOAL_ASSERT(cfg.sampleRate > 0, "span sample rate must be positive");
}

std::uint32_t
SpanCollector::openRequest()
{
    const std::uint32_t id = ++nextSpanId;
    ++opened;
    if (sampled(id))
        live.emplace(id, StageTotals{});
    return id;
}

bool
SpanCollector::sampled(std::uint32_t span_id) const
{
    return span_id != 0 && span_id % cfg.sampleRate == 0;
}

void
SpanCollector::abandon(std::uint32_t span_id)
{
    live.erase(span_id);
}

void
SpanCollector::stampRequest(std::uint32_t span_id, SpanStage stage,
                            Cycle begin, Cycle end, std::uint32_t detail,
                            std::uint16_t component,
                            std::uint64_t last_round_cycles)
{
    const auto it = live.find(span_id);
    if (it == live.end())
        return; // Unsampled (or already finished) span.
    SpanRecord record;
    record.begin = begin;
    record.end = end;
    record.spanId = span_id;
    record.detail = detail;
    record.component = component;
    record.stage = static_cast<std::uint8_t>(stage);
    record.lastRound = last_round_cycles > 0 ? 1 : 0;
    slabStore.append(record);
    const auto s = static_cast<std::size_t>(stage);
    it->second.cycles[s] += end - begin;
    it->second.lastRoundCycles[s] += last_round_cycles;
}

void
SpanCollector::registerLaunch(std::uint32_t ns, std::uint32_t slot,
                              std::vector<std::uint32_t> warp_spans)
{
    launches[launchKey(ns, slot)] = std::move(warp_spans);
}

void
SpanCollector::releaseLaunch(std::uint32_t ns, std::uint32_t slot)
{
    launches.erase(launchKey(ns, slot));
}

void
SpanCollector::stampWarp(std::uint32_t ns, std::uint32_t slot, WarpId warp,
                         SpanStage stage, std::uint16_t component,
                         Cycle begin, Cycle end, std::uint32_t detail,
                         bool last_round)
{
    const auto launch = launches.find(launchKey(ns, slot));
    if (launch == launches.end() || warp >= launch->second.size())
        return;
    const std::uint32_t span_id = launch->second[warp];
    if (span_id == 0)
        return;
    const auto it = live.find(span_id);
    if (it == live.end())
        return; // Unsampled span: the warp map still names it.
    SpanRecord record;
    record.begin = begin;
    record.end = end;
    record.spanId = span_id;
    record.detail = detail;
    record.component = component;
    record.stage = static_cast<std::uint8_t>(stage);
    record.lastRound = last_round ? 1 : 0;
    slabStore.append(record);
    const auto s = static_cast<std::size_t>(stage);
    const std::uint64_t duration = end - begin;
    it->second.cycles[s] += duration;
    if (last_round)
        it->second.lastRoundCycles[s] += duration;
}

StageTotals
SpanCollector::finishRequest(std::uint32_t span_id)
{
    const auto it = live.find(span_id);
    if (it == live.end())
        return StageTotals{};
    const StageTotals totals = it->second;
    live.erase(it);
    ++finished;
    return totals;
}

void
SpanCollector::clear()
{
    slabStore.clear();
    nextSpanId = 0;
    opened = 0;
    finished = 0;
    live.clear();
    launches.clear();
}

template <typename Arena>
void
SpanCollector::transferState(Arena &a)
{
    RCOAL_ASSERT(launches.empty(),
                 "span snapshot or restore requires a quiescent machine "
                 "(%zu launches still registered)",
                 launches.size());
    a.expect(cfg.sampleRate, "span sample rate");
    a.pod(nextSpanId);
    a.pod(opened);
    a.pod(finished);
    slabStore.transferState(a);
    a.podMap(live);
}

template void SpanCollector::transferState(common::ArenaWriter &);
template void SpanCollector::transferState(common::ArenaReader &);

} // namespace rcoal::spans
