/**
 * @file
 * Golden digests of the snapshot arena format.
 *
 * Every byte-identity test of the snapshot path (fork-vs-replay,
 * reset-vs-fresh, restore round-trips) compares two arenas written by
 * the same build, so a change to the field order or width of the arena
 * moves both sides together. These cells pin the bytes themselves
 * across commits: each warms a machine with a few AES launches,
 * snapshots it, and folds the arena bytes and size into one FNV-1a 64
 * digest.
 *
 * The machine region carries the count of cycles fast-forwarded, so a
 * skipping machine's arena differs from a stepped one's in exactly that
 * field; each cell pins one digest per loop. A cell picks the digest by
 * the loop the machine really runs, so RCOAL_CYCLE_SKIPPING=0 checks
 * the stepped digest twice.
 */

#include <array>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "rcoal/sim/gpu_machine.hpp"
#include "rcoal/spans/collector.hpp"
#include "rcoal/trace/dram_checker.hpp"
#include "rcoal/workloads/aes_kernel.hpp"
#include "support/fnv.hpp"

namespace rcoal::sim {
namespace {

const std::array<std::uint8_t, 16> kKey = {
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
    0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

constexpr unsigned kLines = 16;
constexpr unsigned kWarmups = 3;

/** Run the warm-up launches on streams 1..kWarmups. */
void
warm(GpuMachine &machine)
{
    const SmRange range{0, machine.config().numSms};
    for (unsigned w = 0; w < kWarmups; ++w) {
        Rng rng = Rng::stream(29, w);
        const auto plaintext = workloads::randomPlaintext(kLines, rng);
        workloads::AesGpuKernel kernel(plaintext, kKey,
                                       machine.config().warpSize);
        const auto id = machine.launchStream(kernel, range, w + 1);
        machine.runUntilDone(id);
        machine.take(id);
    }
}

std::uint64_t
arenaDigest(const MachineSnapshot &snap)
{
    test::Fnv h;
    const auto &bytes = snap.arena->bytes();
    h.bytes(bytes.data(), bytes.size());
    h.u64(snap.arena->sizeBytes());
    return h.value();
}

/** The digests one cell must produce, by the loop the machine runs. */
struct Golden
{
    std::uint64_t stepped;
    std::uint64_t skipping;
};

GpuConfig
configFor(GpuConfig cfg, bool skipping)
{
    cfg.seed = 20261020;
    cfg.cycleSkipping = skipping;
    cfg.validate();
    return cfg;
}

void
expectDigest(const GpuMachine &machine, std::uint64_t got,
             const Golden &want, const char *cell)
{
    const bool skipping = machine.cycleSkippingEnabled();
    EXPECT_EQ(got, skipping ? want.skipping : want.stepped)
        << cell << (skipping ? " skipping" : " stepped") << std::hex
        << ": digest 0x" << got;
}

GpuConfig
cachedGddr6Refresh()
{
    GpuConfig cfg = GpuConfig::paperBaseline();
    cfg.l1Enabled = true;
    cfg.l2Enabled = true;
    cfg.mshrEnabled = true;
    cfg.dramBackend = DramBackendKind::Gddr6;
    cfg.refreshEnabled = true;
    return cfg;
}

constexpr Golden kFlatGddr5 = {0x37d138927a559976ull,
                                0x6414d3c27f603f9cull};
constexpr Golden kCachedGddr6Refresh = {0xdde95c77a13f8b87ull,
                                        0x181fe0a350e16f48ull};
constexpr Golden kHbm2CheckerSpans = {0xc46066ed0ec27a3cull,
                                      0x64604ed9c9d7d8aeull};

TEST(SnapshotGolden, FlatGddr5)
{
    for (const bool skipping : {false, true}) {
        GpuMachine machine(configFor(GpuConfig::paperBaseline(), skipping));
        warm(machine);
        expectDigest(machine, arenaDigest(machine.snapshot()), kFlatGddr5,
                     "flat/gddr5");
    }
}

TEST(SnapshotGolden, CachedGddr6Refresh)
{
    for (const bool skipping : {false, true}) {
        GpuMachine machine(configFor(cachedGddr6Refresh(), skipping));
        warm(machine);
        expectDigest(machine, arenaDigest(machine.snapshot()),
                     kCachedGddr6Refresh, "l1l2mshr/gddr6/refresh");
    }
}

TEST(SnapshotGolden, Hbm2CheckerSpans)
{
    for (const bool skipping : {false, true}) {
        GpuConfig base = GpuConfig::paperBaseline();
        base.dramBackend = DramBackendKind::Hbm2;
        GpuMachine machine(configFor(base, skipping));
        machine.enableDramChecking(
            trace::DramProtocolChecker::Mode::Collect);
        // A small slab that the stamps below wrap, so the ring's write
        // index is not at its start.
        spans::SpanCollector::Config span_cfg;
        span_cfg.slabCapacity = 8;
        span_cfg.sampleRate = 2;
        spans::SpanCollector collector(span_cfg);
        machine.setSpanCollector(&collector);
        warm(machine);

        // Spans 2 and 4 are sampled; 2 finishes, 4 stays open with its
        // stage totals, and 1 and 3 are counted but never recorded.
        std::array<std::uint32_t, 4> ids{};
        for (auto &id : ids)
            id = collector.openRequest();
        for (Cycle c = 0; c < 6; ++c) {
            for (const std::uint32_t id : ids) {
                collector.stampRequest(id, spans::SpanStage::Queue, c * 10,
                                       c * 10 + id, id);
            }
        }
        collector.finishRequest(ids[1]);
        ASSERT_EQ(collector.liveSpans(), 1u);
        ASSERT_GT(collector.slab().dropped(), 0u);

        expectDigest(machine, arenaDigest(machine.snapshot()),
                     kHbm2CheckerSpans, "hbm2/checker/spans");
    }
}

} // namespace
} // namespace rcoal::sim
