/**
 * @file
 * Protocol-checker-backed tests of the DRAM model.
 *
 * Two layers: a property test that FR-FCFS never issues a command
 * violating a bank timing constraint (random request streams, refresh
 * on and off, every backend), and a sensitivity test that the checker
 * would notice if it did: the same traffic against a checker with one
 * timing parameter tightened by a cycle must trip that parameter's
 * rule. tests/trace/test_dram_checker.cpp covers each rule on synthetic
 * command streams.
 */

#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rcoal/mem/dram_backend.hpp"
#include "rcoal/sim/dram.hpp"
#include "rcoal/sim/gpu_machine.hpp"
#include "rcoal/trace/dram_checker.hpp"
#include "rcoal/workloads/micro_kernels.hpp"
#include "support/slab_ports.hpp"

namespace rcoal::sim {
namespace {

struct DramProtocolFixture : public testing::Test
{
    GpuConfig cfg = GpuConfig::paperBaseline();
    KernelStats stats;
    test::SlabPorts ports;

    /** Referee parameterized exactly as the partition's backend. */
    trace::DramProtocolChecker::Params
    checkerParams() const
    {
        return mem::checkerParamsFor(cfg);
    }

    MemoryAccess
    makeAccess(std::uint64_t id)
    {
        MemoryAccess a;
        a.id = id;
        a.blockAddr = id * 64;
        a.bytes = 64;
        return a;
    }

    DramLocation
    loc(unsigned bank, std::uint64_t row)
    {
        DramLocation l;
        l.partition = 0;
        l.bank = bank;
        l.bankGroup = bank % cfg.bankGroups;
        l.row = row;
        l.column = 0;
        return l;
    }

    /** Drain completions so the queue keeps accepting. */
    void
    drain(DramPartition &dram)
    {
        while (dram.hasCompleted())
            ports.takeCompleted(dram);
    }

    /**
     * Offer a seeded random request stream (hot rows for hits, cold
     * rows for conflicts, all banks) for @p cycles memory cycles.
     */
    void
    driveRandomTraffic(DramPartition &dram, std::uint64_t seed,
                       Cycle cycles)
    {
        std::mt19937_64 rng(seed);
        std::uniform_int_distribution<unsigned> bank_dist(
            0, cfg.banksPerPartition - 1);
        std::uniform_int_distribution<std::uint64_t> row_dist(0, 3);
        std::uniform_int_distribution<int> offer_dist(0, 9);
        std::uint64_t next_id = 0;
        for (Cycle now = 0; now < cycles; ++now) {
            // ~30% offered load, bursty enough to back the queue up.
            if (offer_dist(rng) < 3 && dram.canAccept()) {
                ports.enqueue(dram, makeAccess(next_id++),
                              loc(bank_dist(rng), row_dist(rng)));
            }
            dram.tick(now);
            drain(dram);
        }
    }

    /**
     * A row-conflict request behind a train of same-row reads whose
     * data bursts queue up on the shared bus: the precharge must wait
     * for the last burst to drain, not just for the last read to issue.
     */
    void
    offerReadTrainWithConflict(DramPartition &dram)
    {
        for (std::uint64_t i = 0; i < 8; ++i)
            ports.enqueue(dram, makeAccess(i), loc(0, 0));
        ports.enqueue(dram, makeAccess(99), loc(0, 1));
        for (Cycle now = 0; now < 400; ++now) {
            dram.tick(now);
            drain(dram);
        }
    }

    /**
     * One read under a tREFI short enough that the refresh falls due
     * while the row is inside tRAS and its burst is on the bus.
     */
    void
    offerWorkUnderTightRefresh(DramPartition &dram)
    {
        ports.enqueue(dram, makeAccess(1), loc(0, 0));
        for (Cycle now = 0; now < 200; ++now) {
            dram.tick(now);
            drain(dram);
        }
    }
};

TEST_F(DramProtocolFixture, RandomTrafficNeverViolatesTheProtocol)
{
    cfg.refreshEnabled = false;
    for (std::uint64_t seed : {11u, 22u, 33u}) {
        trace::DramProtocolChecker checker(
            checkerParams(), trace::DramProtocolChecker::Mode::Collect);
        DramPartition dram(cfg, 0, &stats, ports.slab);
        dram.setChecker(&checker);
        driveRandomTraffic(dram, seed, 4000);
        EXPECT_TRUE(checker.clean())
            << "seed " << seed << ": "
            << checker.violations().front().rule << " — "
            << checker.violations().front().detail;
        // The stream must actually exercise the scheduler.
        EXPECT_GT(checker.commandsChecked(), 200u) << "seed " << seed;
    }
}

TEST_F(DramProtocolFixture, RandomTrafficWithRefreshStaysClean)
{
    cfg.refreshEnabled = true;
    cfg.timing.tREFI = 500; // Several refreshes inside the window.
    for (std::uint64_t seed : {44u, 55u}) {
        trace::DramProtocolChecker checker(
            checkerParams(), trace::DramProtocolChecker::Mode::Collect);
        DramPartition dram(cfg, 0, &stats, ports.slab);
        dram.setChecker(&checker);
        driveRandomTraffic(dram, seed, 4000);
        EXPECT_TRUE(checker.clean())
            << "seed " << seed << ": "
            << checker.violations().front().rule << " — "
            << checker.violations().front().detail;
        EXPECT_GT(stats.dramRefreshes, 3u) << "seed " << seed;
    }
}

TEST_F(DramProtocolFixture, FixedTimingDrainsBurstsBeforePrecharge)
{
    trace::DramProtocolChecker checker(
        checkerParams(), trace::DramProtocolChecker::Mode::Collect);
    DramPartition dram(cfg, 0, &stats, ports.slab);
    dram.setChecker(&checker);
    offerReadTrainWithConflict(dram);

    EXPECT_TRUE(checker.clean())
        << checker.violations().front().rule << " — "
        << checker.violations().front().detail;
    EXPECT_EQ(stats.dramPrecharges, 1u);
    EXPECT_TRUE(dram.idle());
}

TEST_F(DramProtocolFixture, FixedRefreshDefersUntilQuiescent)
{
    cfg.refreshEnabled = true;
    cfg.timing.tREFI = 20; // Due while the first row is inside tRAS.
    cfg.timing.tRFC = 10;  // Keep refresh-to-refresh spacing legal.
    trace::DramProtocolChecker checker(
        checkerParams(), trace::DramProtocolChecker::Mode::Collect);
    DramPartition dram(cfg, 0, &stats, ports.slab);
    dram.setChecker(&checker);
    offerWorkUnderTightRefresh(dram);

    EXPECT_TRUE(checker.clean())
        << checker.violations().front().rule << " — "
        << checker.violations().front().detail;
    EXPECT_GT(stats.dramRefreshes, 0u);
    EXPECT_TRUE(dram.idle()); // The deferral never starves the read.
}

// ---------------------------------------------------------------------
// The same referee, parameterized over every DRAM backend personality:
// the scheduler must satisfy whatever window set the backend declares,
// and the checker must notice a window the scheduler cuts short.

struct DramBackendProtocol
    : public DramProtocolFixture,
      public testing::WithParamInterface<DramBackendKind>
{
    void SetUp() override { cfg.dramBackend = GetParam(); }

    bool
    groupAware() const
    {
        return mem::makeDramBackend(GetParam())->timing(cfg)
            .bankGroupAware;
    }
};

TEST_P(DramBackendProtocol, RandomTrafficNeverViolatesTheProtocol)
{
    for (std::uint64_t seed : {11u, 22u}) {
        trace::DramProtocolChecker checker(
            checkerParams(), trace::DramProtocolChecker::Mode::Collect);
        DramPartition dram(cfg, 0, &stats, ports.slab);
        dram.setChecker(&checker);
        driveRandomTraffic(dram, seed, 4000);
        EXPECT_TRUE(checker.clean())
            << "seed " << seed << ": "
            << checker.violations().front().rule << " — "
            << checker.violations().front().detail;
        EXPECT_GT(checker.commandsChecked(), 200u) << "seed " << seed;
    }
}

TEST_P(DramBackendProtocol, RandomTrafficWithRefreshStaysClean)
{
    cfg.refreshEnabled = true;
    cfg.timing.tREFI = 500; // GDDR5 only; the others bring their own.
    trace::DramProtocolChecker checker(
        checkerParams(), trace::DramProtocolChecker::Mode::Collect);
    DramPartition dram(cfg, 0, &stats, ports.slab);
    dram.setChecker(&checker);
    driveRandomTraffic(dram, 66, 12000);
    EXPECT_TRUE(checker.clean())
        << checker.violations().front().rule << " — "
        << checker.violations().front().detail;
    EXPECT_GT(stats.dramRefreshes, 0u);
}

TEST_P(DramBackendProtocol, FixedTimingDrainsReadTrainCleanly)
{
    trace::DramProtocolChecker checker(
        checkerParams(), trace::DramProtocolChecker::Mode::Collect);
    DramPartition dram(cfg, 0, &stats, ports.slab);
    dram.setChecker(&checker);
    offerReadTrainWithConflict(dram);
    EXPECT_TRUE(checker.clean())
        << checker.violations().front().rule << " — "
        << checker.violations().front().detail;
    EXPECT_TRUE(dram.idle());
}

/** A checker parameter to tighten, and the rule that must then trip. */
struct Tightening
{
    unsigned trace::DramProtocolChecker::Params::*param;
    std::string rule;
};

TEST_P(DramBackendProtocol, CheckerTripsEachRuleTightenedByOneCycle)
{
    // The scheduler meets every window exactly (the clean-run tests
    // above), so a referee that asks for one more cycle than the
    // backend grants must report the rule that window guards. A rule
    // that stays silent here would stay silent on a real violation.
    using Params = trace::DramProtocolChecker::Params;
    const bool aware = groupAware();
    std::vector<Tightening> refresh_off = {
        {&Params::tCL, "tCL"},   {&Params::tRCD, "tRCD"},
        {&Params::tRAS, "tRAS"}, {&Params::tRP, "tRP"},
        {&Params::tRRD, "tRRD"},
        // The aware backends check tCCD per pseudo-channel as tCCD_S.
        {&Params::tCCD, aware ? "tCCD_S" : "tCCD"},
    };
    if (aware) {
        refresh_off.push_back({&Params::tCCDLong, "tCCD_L"});
        refresh_off.push_back({&Params::tRRDLong, "tRRD_L"});
    }
    const std::vector<Tightening> refresh_on = {
        {&Params::tRFC, "tRFC"},
        {&Params::tRAS, "ref-tRAS"},
    };

    for (const bool refresh : {false, true}) {
        cfg.refreshEnabled = refresh;
        cfg.timing.tREFI = 500; // GDDR5 only; the others bring their own.
        for (const Tightening &t : refresh ? refresh_on : refresh_off) {
            Params params = checkerParams();
            ++(params.*t.param);
            trace::DramProtocolChecker checker(
                params, trace::DramProtocolChecker::Mode::Collect);
            KernelStats run_stats;
            DramPartition dram(cfg, 0, &run_stats, ports.slab);
            dram.setChecker(&checker);
            driveRandomTraffic(dram, 11, 12000);
            bool tripped = false;
            for (const auto &v : checker.violations())
                tripped |= v.rule == t.rule;
            EXPECT_TRUE(tripped)
                << t.rule << (refresh ? " (refresh on)" : "")
                << " never tripped";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, DramBackendProtocol,
    testing::Values(DramBackendKind::Gddr5, DramBackendKind::Gddr6,
                    DramBackendKind::Hbm2),
    [](const testing::TestParamInfo<DramBackendKind> &info) {
        return std::string(mem::dramBackendKindName(info.param));
    });

TEST(GpuMachineChecking, FullKernelRunsCleanUnderPanicCheckers)
{
    // End to end: a real kernel through the machine with a Panic-mode
    // checker on every partition — any protocol violation aborts.
    GpuConfig cfg = GpuConfig::paperBaseline();
    cfg.numSms = 4;
    GpuMachine machine(cfg);
    machine.enableDramChecking();
    const auto kernel = workloads::makeStreamingKernel(4, 16, 32);
    const auto id = machine.launch(*kernel, SmRange{0, 4});
    machine.runUntilDone(id);
    const KernelStats stats = machine.take(id);
    EXPECT_GT(stats.cycles, 0u);
    std::uint64_t commands = 0;
    for (const auto &checker : machine.dramCheckers())
        commands += checker->commandsChecked();
    EXPECT_GT(commands, 0u);
}

} // namespace
} // namespace rcoal::sim
