/**
 * @file
 * Unit tests for the span layer's storage and lifecycle primitives:
 * the allocation-free SpanSlab ring, the SpanCollector's id/sampling/
 * stamp-routing logic, and their StateArena round-trips.
 */

#include <gtest/gtest.h>

#include "rcoal/common/state_arena.hpp"
#include "rcoal/spans/collector.hpp"
#include "rcoal/spans/span_slab.hpp"

namespace rcoal::spans {
namespace {

SpanRecord
record(std::uint32_t span_id, SpanStage stage, Cycle begin, Cycle end)
{
    SpanRecord r;
    r.begin = begin;
    r.end = end;
    r.spanId = span_id;
    r.stage = static_cast<std::uint8_t>(stage);
    return r;
}

bool
sameRecord(const SpanRecord &a, const SpanRecord &b)
{
    return a.begin == b.begin && a.end == b.end && a.spanId == b.spanId &&
           a.detail == b.detail && a.component == b.component &&
           a.stage == b.stage && a.lastRound == b.lastRound;
}

TEST(SpanSlab, EveryStageHasAName)
{
    for (std::size_t s = 0; s < kNumSpanStages; ++s) {
        const char *name = spanStageName(static_cast<SpanStage>(s));
        ASSERT_NE(name, nullptr);
        EXPECT_GT(std::string(name).size(), 0u);
    }
}

TEST(SpanSlab, RecordsInOrderBelowCapacity)
{
    SpanSlab slab(8);
    for (Cycle c = 0; c < 5; ++c)
        slab.append(record(1, SpanStage::Queue, c, c + 1));
    EXPECT_EQ(slab.size(), 5u);
    EXPECT_EQ(slab.totalAppended(), 5u);
    EXPECT_EQ(slab.dropped(), 0u);
    const auto records = slab.snapshot();
    ASSERT_EQ(records.size(), 5u);
    for (std::size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(records[i].begin, i);
}

TEST(SpanSlab, OverwritesOldestWhenFull)
{
    SpanSlab slab(4);
    for (Cycle c = 0; c < 10; ++c)
        slab.append(record(1, SpanStage::Coalesce, c, c + 1));
    EXPECT_EQ(slab.size(), 4u);
    EXPECT_EQ(slab.totalAppended(), 10u);
    EXPECT_EQ(slab.dropped(), 6u);
    const auto records = slab.snapshot();
    ASSERT_EQ(records.size(), 4u);
    // The most recent window survives, oldest first.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(records[i].begin, 6 + i);
}

TEST(SpanSlab, ClearedSlabSerializesLikeFresh)
{
    SpanSlab used(4);
    for (Cycle c = 0; c < 9; ++c)
        used.append(record(2, SpanStage::DramService, c, c + 3));
    used.clear();
    EXPECT_EQ(used.size(), 0u);
    EXPECT_EQ(used.totalAppended(), 0u);
    EXPECT_EQ(used.dropped(), 0u);

    SpanSlab fresh(4);
    common::StateArena used_arena, fresh_arena;
    {
        common::ArenaWriter w(used_arena);
        w.beginRegion(1);
        used.transferState(w);
        w.endRegion();
    }
    {
        common::ArenaWriter w(fresh_arena);
        w.beginRegion(1);
        fresh.transferState(w);
        w.endRegion();
    }
    EXPECT_TRUE(used_arena.byteEqual(fresh_arena));
}

TEST(SpanSlab, SaveRestoreRoundTrips)
{
    SpanSlab slab(4);
    for (Cycle c = 0; c < 7; ++c)
        slab.append(record(3, SpanStage::Crossbar, c, c + 2));

    common::StateArena arena;
    {
        common::ArenaWriter w(arena);
        w.beginRegion(1);
        slab.transferState(w);
        w.endRegion();
    }
    SpanSlab restored(4);
    {
        common::ArenaReader r(arena);
        r.beginRegion(1);
        restored.transferState(r);
        r.endRegion();
        EXPECT_TRUE(r.atEnd());
    }
    EXPECT_EQ(restored.size(), slab.size());
    EXPECT_EQ(restored.totalAppended(), slab.totalAppended());
    EXPECT_EQ(restored.dropped(), slab.dropped());
    const auto a = slab.snapshot();
    const auto b = restored.snapshot();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(sameRecord(a[i], b[i])) << "record " << i;
}

TEST(SpanCollector, IdsStartAtOneAndZeroMeansUntraced)
{
    SpanCollector collector;
    EXPECT_FALSE(collector.sampled(0));
    EXPECT_EQ(collector.openRequest(), 1u);
    EXPECT_EQ(collector.openRequest(), 2u);
    EXPECT_EQ(collector.spansOpened(), 2u);
    EXPECT_EQ(collector.liveSpans(), 2u);
}

TEST(SpanCollector, StampsAccumulateAndFinishDrains)
{
    SpanCollector collector;
    const std::uint32_t id = collector.openRequest();
    collector.stampRequest(id, SpanStage::Queue, 10, 50);
    collector.stampRequest(id, SpanStage::KernelExec, 50, 250, 4, 1,
                           /*last_round_cycles=*/60);
    const StageTotals totals = collector.finishRequest(id);
    EXPECT_EQ(totals.cycles[static_cast<std::size_t>(SpanStage::Queue)],
              40u);
    EXPECT_EQ(
        totals.cycles[static_cast<std::size_t>(SpanStage::KernelExec)],
        200u);
    EXPECT_EQ(totals.lastRoundCycles[static_cast<std::size_t>(
                  SpanStage::KernelExec)],
              60u);
    EXPECT_EQ(collector.liveSpans(), 0u);
    EXPECT_EQ(collector.spansFinished(), 1u);
    // Double-finish returns zeroed totals, not stale state.
    const StageTotals again = collector.finishRequest(id);
    EXPECT_EQ(again.cycles[static_cast<std::size_t>(SpanStage::Queue)],
              0u);
}

TEST(SpanCollector, WarpStampsResolveThroughLaunchRegistration)
{
    SpanCollector collector;
    const std::uint32_t id = collector.openRequest();
    collector.registerLaunch(/*ns=*/3, /*slot=*/7, {0, id, 0});

    // Warp 1 belongs to the span; warps 0/2 and unknown launches are
    // silently ignored.
    collector.stampWarp(3, 7, 1, SpanStage::Coalesce, 0, 100, 104, 4,
                        /*last_round=*/true);
    collector.stampWarp(3, 7, 0, SpanStage::Coalesce, 0, 100, 104, 4,
                        true);
    collector.stampWarp(3, 7, 9, SpanStage::Coalesce, 0, 100, 104, 4,
                        true);
    collector.stampWarp(9, 9, 1, SpanStage::Coalesce, 0, 100, 104, 4,
                        true);
    EXPECT_EQ(collector.slab().totalAppended(), 1u);

    collector.releaseLaunch(3, 7);
    collector.stampWarp(3, 7, 1, SpanStage::Coalesce, 0, 200, 204, 4,
                        true);
    EXPECT_EQ(collector.slab().totalAppended(), 1u);

    const StageTotals totals = collector.finishRequest(id);
    const auto s = static_cast<std::size_t>(SpanStage::Coalesce);
    EXPECT_EQ(totals.cycles[s], 4u);
    EXPECT_EQ(totals.lastRoundCycles[s], 4u);
}

TEST(SpanCollector, UnsampledSpansConsumeIdsButNoSlabSpace)
{
    SpanCollector::Config cfg;
    cfg.sampleRate = 4;
    SpanCollector collector(cfg);
    for (std::uint32_t i = 1; i <= 8; ++i) {
        const std::uint32_t id = collector.openRequest();
        EXPECT_EQ(id, i); // Every request consumes an id.
        EXPECT_EQ(collector.sampled(id), id % 4 == 0);
        collector.stampRequest(id, SpanStage::Queue, 0, 10);
    }
    EXPECT_EQ(collector.spansOpened(), 8u);
    EXPECT_EQ(collector.liveSpans(), 2u); // Ids 4 and 8.
    EXPECT_EQ(collector.slab().totalAppended(), 2u);
    for (const SpanRecord &r : collector.slab().snapshot())
        EXPECT_EQ(r.spanId % 4, 0u);
}

TEST(SpanCollector, SampledSlabIsTheSampledSubsetOfTheFullSlab)
{
    // The satellite contract behind --span-sample-rate: because every
    // request consumes an id whether or not it is retained, a sampled
    // run's slab is exactly the full run's slab filtered to sampled
    // ids — byte for byte, same order.
    const auto drive = [](SpanCollector &collector) {
        for (int i = 0; i < 12; ++i) {
            const std::uint32_t id = collector.openRequest();
            collector.stampRequest(id, SpanStage::Queue,
                                   Cycle(10 * i), Cycle(10 * i + 5),
                                   /*detail=*/id);
            collector.registerLaunch(0, id, {id});
            collector.stampWarp(0, id, 0, SpanStage::Coalesce, 2,
                                Cycle(10 * i + 5), Cycle(10 * i + 9),
                                4, true);
            collector.releaseLaunch(0, id);
            collector.finishRequest(id);
        }
    };
    SpanCollector full;
    drive(full);
    SpanCollector::Config cfg;
    cfg.sampleRate = 3;
    SpanCollector sampled(cfg);
    drive(sampled);

    std::vector<SpanRecord> expected;
    for (const SpanRecord &r : full.slab().snapshot())
        if (r.spanId % 3 == 0)
            expected.push_back(r);
    const auto actual = sampled.slab().snapshot();
    ASSERT_EQ(actual.size(), expected.size());
    ASSERT_FALSE(actual.empty());
    for (std::size_t i = 0; i < actual.size(); ++i)
        EXPECT_TRUE(sameRecord(actual[i], expected[i])) << "record " << i;
}

TEST(SpanCollector, SaveRestoreRoundTripsLiveSpans)
{
    SpanCollector collector;
    const std::uint32_t finished_id = collector.openRequest();
    collector.stampRequest(finished_id, SpanStage::Queue, 0, 7);
    collector.finishRequest(finished_id);
    const std::uint32_t live_id = collector.openRequest();
    collector.stampRequest(live_id, SpanStage::Queue, 7, 30, 1, 2);

    common::StateArena arena;
    {
        common::ArenaWriter w(arena);
        w.beginRegion(1);
        collector.transferState(w);
        w.endRegion();
    }
    SpanCollector restored;
    {
        common::ArenaReader r(arena);
        r.beginRegion(1);
        restored.transferState(r);
        r.endRegion();
    }
    EXPECT_EQ(restored.spansOpened(), 2u);
    EXPECT_EQ(restored.spansFinished(), 1u);
    EXPECT_EQ(restored.liveSpans(), 1u);
    // The restored collector continues the id sequence...
    EXPECT_EQ(restored.openRequest(), 3u);
    // ...and the in-flight span's totals survived the round-trip.
    const StageTotals totals = restored.finishRequest(live_id);
    EXPECT_EQ(totals.cycles[static_cast<std::size_t>(SpanStage::Queue)],
              23u);

    // Byte determinism: re-serializing an untouched restore matches.
    SpanCollector again;
    {
        common::ArenaReader r(arena);
        r.beginRegion(1);
        again.transferState(r);
        r.endRegion();
    }
    common::StateArena second;
    {
        common::ArenaWriter w(second);
        w.beginRegion(1);
        again.transferState(w);
        w.endRegion();
    }
    EXPECT_TRUE(second.byteEqual(arena));
}

TEST(SpanCollector, ClearRestartsIdsAndMatchesFresh)
{
    SpanCollector used;
    for (int i = 0; i < 5; ++i) {
        const std::uint32_t id = used.openRequest();
        used.stampRequest(id, SpanStage::Queue, 0, 9);
    }
    used.clear();
    EXPECT_EQ(used.openRequest(), 1u);
    used.clear();

    SpanCollector fresh;
    common::StateArena used_arena, fresh_arena;
    {
        common::ArenaWriter w(used_arena);
        w.beginRegion(1);
        used.transferState(w);
        w.endRegion();
    }
    {
        common::ArenaWriter w(fresh_arena);
        w.beginRegion(1);
        fresh.transferState(w);
        w.endRegion();
    }
    EXPECT_TRUE(used_arena.byteEqual(fresh_arena));
}

} // namespace
} // namespace rcoal::spans
