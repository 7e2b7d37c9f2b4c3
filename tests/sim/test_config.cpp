/**
 * @file
 * Unit tests for GpuConfig validation and description.
 */

#include <gtest/gtest.h>

#include "rcoal/sim/config.hpp"

namespace rcoal::sim {
namespace {

TEST(GpuConfig, PaperBaselineMatchesTableOne)
{
    const GpuConfig cfg = GpuConfig::paperBaseline();
    EXPECT_EQ(cfg.numSms, 15u);
    EXPECT_EQ(cfg.warpSize, 32u);
    EXPECT_EQ(cfg.issueWidth, 2u); // SIMT width 32 = 16 x 2
    EXPECT_DOUBLE_EQ(cfg.coreClockMhz, 1400.0);
    EXPECT_DOUBLE_EQ(cfg.memClockMhz, 924.0);
    EXPECT_EQ(cfg.numPartitions, 6u);
    EXPECT_EQ(cfg.partitionInterleaveBytes, 256u);
    EXPECT_EQ(cfg.banksPerPartition, 16u);
    EXPECT_EQ(cfg.bankGroups, 4u);
    EXPECT_EQ(cfg.timing.tCL, 12u);
    EXPECT_EQ(cfg.timing.tRP, 12u);
    EXPECT_EQ(cfg.timing.tRC, 40u);
    EXPECT_EQ(cfg.timing.tRAS, 28u);
    EXPECT_EQ(cfg.timing.tCCD, 2u);
    EXPECT_EQ(cfg.timing.tRCD, 12u);
    EXPECT_EQ(cfg.timing.tRRD, 6u);
    // The paper disables the bandwidth-saving features (Section VII).
    EXPECT_FALSE(cfg.l1Enabled);
    EXPECT_FALSE(cfg.l2Enabled);
    EXPECT_FALSE(cfg.mshrEnabled);
    // Baseline attack model: one subwarp per coalescing unit.
    EXPECT_EQ(cfg.policy.mechanism, core::Mechanism::Baseline);
    cfg.validate();
}

TEST(GpuConfig, DescribeMentionsKeyParameters)
{
    const std::string text = GpuConfig::paperBaseline().describe();
    for (const char *needle :
         {"15 SMs", "1400 MHz", "924 MHz", "FR-FCFS", "tCL=12",
          "256-byte interleave", "Baseline"}) {
        EXPECT_NE(text.find(needle), std::string::npos)
            << "missing: " << needle;
    }
}

TEST(GpuConfigDeathTest, RejectsBadGeometry)
{
    GpuConfig cfg = GpuConfig::paperBaseline();
    cfg.coalesceBlockBytes = 48;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "power of two");

    cfg = GpuConfig::paperBaseline();
    cfg.partitionInterleaveBytes = 32; // < block size
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "interleave");

    cfg = GpuConfig::paperBaseline();
    cfg.banksPerPartition = 6; // not a multiple of 4 groups
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1), "multiple");

    cfg = GpuConfig::paperBaseline();
    cfg.rowBytes = 64; // smaller than the interleave chunk
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1), "row size");

    cfg = GpuConfig::paperBaseline();
    cfg.prtEntries = 8; // cannot hold one lane each
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1), "PRT");

    cfg = GpuConfig::paperBaseline();
    cfg.numSms = 0;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1), "positive");

    cfg = GpuConfig::paperBaseline();
    cfg.policy = core::CoalescingPolicy::fss(64); // > warp size
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "num-subwarp");
}

TEST(GpuConfigDeathTest, RejectsZeroSmsWithActionableMessage)
{
    GpuConfig cfg = GpuConfig::paperBaseline();
    cfg.numSms = 0;
    // The message must name the field and echo the offending value.
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "numSms.*positive.*got 0");
}

TEST(GpuConfigDeathTest, RejectsZeroPartitionsWithActionableMessage)
{
    GpuConfig cfg = GpuConfig::paperBaseline();
    cfg.numPartitions = 0;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "numPartitions.*positive");
}

TEST(GpuConfigDeathTest, RejectsNonPowerOfTwoWarpSize)
{
    GpuConfig cfg = GpuConfig::paperBaseline();
    cfg.warpSize = 24;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "warpSize must be a power of two \\(got 24\\)");
}

TEST(GpuConfigDeathTest, RejectsWarpSizeBeyondInlinePrtCapacity)
{
    // Subwarp partitions and coalesced lane lists (whose sizes are the
    // per-access PRT demand) are inline arrays sized for one lane per
    // warp thread; a wider warp must be rejected up front rather than
    // overflowing on the hot path.
    GpuConfig cfg = GpuConfig::paperBaseline();
    cfg.warpSize = 64;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "inline lane capacity");
}

TEST(GpuConfigDeathTest, RejectsTooManyBanks)
{
    GpuConfig cfg = GpuConfig::paperBaseline();
    cfg.banksPerPartition = 128;
    cfg.bankGroups = 4;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1), "64 banks");
}

TEST(GpuConfigDeathTest, RejectsMoreThan64WarpsPerScheduler)
{
    // Each scheduler's issuable warps are one 64-bit mask.
    GpuConfig cfg = GpuConfig::paperBaseline();
    cfg.issueWidth = 2;
    cfg.maxWarpsPerSm = 128;
    cfg.validate(); // Exactly 64 per scheduler is fine.
    cfg.maxWarpsPerSm = 129;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "64 warps per scheduler");
}

TEST(GpuConfigDeathTest, RejectsBadCacheGeometry)
{
    // Cache geometry is validated even while the caches are disabled,
    // so a bad override fails at construction, not when a bench later
    // flips l1Enabled. Each message names the offending level.
    GpuConfig cfg = GpuConfig::paperBaseline();
    cfg.l1.ways = 0;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "L1 associativity must be >= 1");

    cfg = GpuConfig::paperBaseline();
    cfg.l2.sectorBytes = 48; // 128 B lines don't split into 48 B sectors.
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "L2 lineBytes \\(128\\) must be a positive multiple of "
                "sectorBytes \\(48\\)");

    cfg = GpuConfig::paperBaseline();
    cfg.l1.sectorBytes = 2; // 64 sectors per 128 B line.
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "at most 32 supported");

    cfg = GpuConfig::paperBaseline();
    cfg.l1.sizeBytes = 1000; // Not line-aligned.
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "L1 sizeBytes \\(1000\\) must be a positive multiple");

    cfg = GpuConfig::paperBaseline();
    cfg.l1.sizeBytes = 256; // 2 lines for 4 ways.
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "too small for its associativity");

    cfg = GpuConfig::paperBaseline();
    cfg.l1.lineBytes = 32; // Smaller than the 64 B coalescing block.
    cfg.l1.sectorBytes = 32;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "multiple of.*coalesceBlockBytes");

    cfg = GpuConfig::paperBaseline();
    cfg.l2.hitLatency = 0;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "L2 hitLatency must be >= 1");

    cfg = GpuConfig::paperBaseline();
    cfg.l1.streamingReservations = 0;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "streamingReservations must be >= 1");
}

TEST(GpuConfigDeathTest, RejectsInvertedCacheCapacities)
{
    GpuConfig cfg = GpuConfig::paperBaseline();
    cfg.l2.sizeBytes = 16 * 1024; // Below the 32 KiB L1.
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "L2 capacity.*must be >= L1 capacity");

    cfg = GpuConfig::paperBaseline();
    cfg.l2MshrEntries = 0;
    EXPECT_EXIT(cfg.validate(), testing::ExitedWithCode(1),
                "l2MshrEntries must be positive");
}

TEST(GpuConfig, DescribeNamesTheDramBackend)
{
    GpuConfig cfg = GpuConfig::paperBaseline();
    EXPECT_NE(cfg.describe().find("GDDR5"), std::string::npos);
    // The default backend prints the Table I timing line verbatim.
    EXPECT_NE(cfg.describe().find("tCL=12"), std::string::npos);

    cfg.dramBackend = DramBackendKind::Gddr6;
    EXPECT_NE(cfg.describe().find("GDDR6"), std::string::npos);
    cfg.dramBackend = DramBackendKind::Hbm2;
    EXPECT_NE(cfg.describe().find("HBM2"), std::string::npos);
}

TEST(GpuConfig, DescribeMentionsCacheGeometry)
{
    GpuConfig cfg = GpuConfig::paperBaseline();
    cfg.l1Enabled = cfg.l2Enabled = true;
    const std::string text = cfg.describe();
    EXPECT_NE(text.find("32 KiB"), std::string::npos) << text;
    EXPECT_NE(text.find("128 KiB"), std::string::npos) << text;
}

} // namespace
} // namespace rcoal::sim
