/**
 * @file
 * Unit tests for the correlation-attack engine (estimation logic only;
 * full attack runs live in the integration suite).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "rcoal/aes/sbox.hpp"
#include "rcoal/aes/ttable.hpp"
#include "rcoal/attack/correlation_attack.hpp"

namespace rcoal::attack {
namespace {

/** Build a ciphertext set whose byte-j T4 block indices are chosen. */
std::vector<aes::Block>
ciphertextWithBlocks(unsigned j, std::uint8_t guess,
                     const std::vector<unsigned> &blocks)
{
    std::vector<aes::Block> lines(blocks.size());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        // Choose t with t >> 4 == blocks[i]; invert Eq. 3:
        // c_j = Sbox[t] ^ guess.
        const std::uint8_t t =
            static_cast<std::uint8_t>(blocks[i] << 4);
        lines[i][j] = aes::subByte(t) ^ guess;
    }
    return lines;
}

TEST(CorrelationAttack, BaselineEstimateCountsDistinctBlocks)
{
    CorrelationAttack attack({});
    Rng rng(1);
    // 4 lines touching blocks {3, 3, 7, 9} -> 3 coalesced accesses.
    const auto lines = ciphertextWithBlocks(0, 0x42, {3, 3, 7, 9});
    EXPECT_DOUBLE_EQ(
        attack.estimateLastRoundAccesses(lines, 0, 0x42, rng), 3.0);
}

TEST(CorrelationAttack, EstimateIsOneWhenAllLinesShareABlock)
{
    CorrelationAttack attack({});
    Rng rng(2);
    const auto lines =
        ciphertextWithBlocks(5, 0x00, std::vector<unsigned>(32, 4));
    EXPECT_DOUBLE_EQ(
        attack.estimateLastRoundAccesses(lines, 5, 0x00, rng), 1.0);
}

TEST(CorrelationAttack, EstimateDependsOnGuess)
{
    CorrelationAttack attack({});
    Rng rng(3);
    const auto lines = ciphertextWithBlocks(0, 0x11, {1, 2, 3, 4});
    const double right =
        attack.estimateLastRoundAccesses(lines, 0, 0x11, rng);
    EXPECT_DOUBLE_EQ(right, 4.0);
    // A different guess sees a scrambled index set - usually not 4
    // distinct blocks chosen by us, but always within [1, 4].
    const double wrong =
        attack.estimateLastRoundAccesses(lines, 0, 0x12, rng);
    EXPECT_GE(wrong, 1.0);
    EXPECT_LE(wrong, 4.0);
}

TEST(CorrelationAttack, FssAttackSplitsLinesIntoGroups)
{
    // Algorithm 1 with num-subwarp = 2: the first half of the lines
    // forms subwarp 0 and the second half subwarp 1.
    AttackConfig cfg;
    cfg.assumedPolicy = core::CoalescingPolicy::fss(2);
    cfg.warpSize = 4;
    CorrelationAttack attack(cfg);
    Rng rng(4);
    // Blocks {5, 9 | 5, 9}: baseline would give 2; per-subwarp gives 4.
    const auto lines = ciphertextWithBlocks(0, 0x00, {5, 9, 5, 9});
    EXPECT_DOUBLE_EQ(
        attack.estimateLastRoundAccesses(lines, 0, 0x00, rng), 4.0);

    // Blocks {5, 5 | 9, 9}: per-subwarp dedup gives 2.
    const auto aligned = ciphertextWithBlocks(0, 0x00, {5, 5, 9, 9});
    EXPECT_DOUBLE_EQ(
        attack.estimateLastRoundAccesses(aligned, 0, 0x00, rng), 2.0);
}

TEST(CorrelationAttack, MultiWarpPlaintextSumsPerWarp)
{
    AttackConfig cfg;
    cfg.warpSize = 4;
    CorrelationAttack attack(cfg);
    Rng rng(5);
    // Two warps of 4 lines; each warp touches 2 distinct blocks.
    const auto lines =
        ciphertextWithBlocks(0, 0x00, {1, 1, 2, 2, 3, 3, 4, 4});
    EXPECT_DOUBLE_EQ(
        attack.estimateLastRoundAccesses(lines, 0, 0x00, rng), 4.0);
}

TEST(CorrelationAttack, RandomizedModelVariesAcrossDraws)
{
    AttackConfig cfg;
    cfg.assumedPolicy = core::CoalescingPolicy::rss(4, true);
    CorrelationAttack attack(cfg);
    Rng rng(6);
    std::vector<aes::Block> lines(32);
    Rng data_rng(7);
    for (auto &line : lines) {
        for (auto &b : line)
            b = static_cast<std::uint8_t>(data_rng.below(256));
    }
    std::set<double> estimates;
    for (int i = 0; i < 20; ++i) {
        estimates.insert(
            attack.estimateLastRoundAccesses(lines, 0, 0x00, rng));
    }
    EXPECT_GT(estimates.size(), 3u);
}

TEST(CorrelationAttack, AveragingDrawsReducesVariance)
{
    AttackConfig one_draw;
    one_draw.assumedPolicy = core::CoalescingPolicy::rss(4, true);
    one_draw.drawsPerEstimate = 1;
    AttackConfig many_draws = one_draw;
    many_draws.drawsPerEstimate = 32;

    CorrelationAttack a(one_draw);
    CorrelationAttack b(many_draws);
    std::vector<aes::Block> lines(32);
    Rng data_rng(8);
    for (auto &line : lines) {
        for (auto &byte : line)
            byte = static_cast<std::uint8_t>(data_rng.below(256));
    }
    const auto spread = [&](CorrelationAttack &attack) {
        Rng rng(9);
        double lo = 1e9;
        double hi = -1e9;
        for (int i = 0; i < 30; ++i) {
            const double e =
                attack.estimateLastRoundAccesses(lines, 0, 0, rng);
            lo = std::min(lo, e);
            hi = std::max(hi, e);
        }
        return hi - lo;
    };
    EXPECT_LT(spread(b), spread(a));
}

TEST(CorrelationAttack, AttackByteFindsPlantedCorrelation)
{
    // Synthetic observations: time equals the block count for guess
    // 0x5a exactly; the attack must pick that guess.
    CorrelationAttack attack({});
    Rng rng(10);
    std::vector<EncryptionObservation> obs;
    Rng data_rng(11);
    for (int s = 0; s < 60; ++s) {
        EncryptionObservation o;
        o.ciphertext.resize(32);
        for (auto &line : o.ciphertext) {
            for (auto &b : line)
                b = static_cast<std::uint8_t>(data_rng.below(256));
        }
        Rng tmp(0);
        o.lastRoundTime =
            attack.estimateLastRoundAccesses(o.ciphertext, 3, 0x5a, tmp);
        o.totalTime = o.lastRoundTime;
        obs.push_back(std::move(o));
    }
    const auto result = attack.attackByte(obs, 3);
    EXPECT_EQ(result.bestGuess, 0x5a);
    EXPECT_GT(result.bestCorrelation, 0.99);
}

TEST(CorrelationAttack, AttackKeyEvaluatesAgainstTruth)
{
    // With random times nothing should correlate; evaluation fields
    // must still be consistent.
    CorrelationAttack attack({});
    Rng data_rng(12);
    std::vector<EncryptionObservation> obs;
    for (int s = 0; s < 20; ++s) {
        EncryptionObservation o;
        o.ciphertext.resize(32);
        for (auto &line : o.ciphertext) {
            for (auto &b : line)
                b = static_cast<std::uint8_t>(data_rng.below(256));
        }
        o.lastRoundTime = static_cast<double>(data_rng.below(1000));
        obs.push_back(std::move(o));
    }
    aes::Block truth{};
    for (unsigned i = 0; i < 16; ++i)
        truth[i] = static_cast<std::uint8_t>(i * 13 + 1);
    const auto result = attack.attackKey(obs, truth);
    EXPECT_LE(result.bytesRecovered, 16u);
    for (unsigned j = 0; j < 16; ++j) {
        const auto &byte = result.bytes[j];
        EXPECT_EQ(byte.correctGuessCorrelation,
                  byte.correlation[truth[j]]);
        EXPECT_GE(byte.bestCorrelation,
                  byte.correctGuessCorrelation);
        EXPECT_EQ(result.recoveredLastRoundKey[j], byte.bestGuess);
    }
    EXPECT_DOUBLE_EQ(averageCorrectCorrelation(result),
                     result.avgCorrectCorrelation);
}

TEST(CorrelationAttack, SampleEstimateFollowsEqFour)
{
    KeyAttackResult strong;
    strong.avgCorrectCorrelation = 0.5;
    KeyAttackResult weak;
    weak.avgCorrectCorrelation = 0.05;
    KeyAttackResult none;
    none.avgCorrectCorrelation = 0.0;

    const double s_strong = estimatedSamplesToRecover(strong);
    const double s_weak = estimatedSamplesToRecover(weak);
    EXPECT_LT(s_strong, s_weak);
    // Eq. 4 approximate form: ~2 Z^2 / rho^2 ~= 11 / rho^2.
    EXPECT_NEAR(s_weak, 11.0 / (0.05 * 0.05), s_weak * 0.1);
    EXPECT_TRUE(std::isinf(estimatedSamplesToRecover(none)));
    // Lower required confidence -> fewer samples.
    EXPECT_LT(estimatedSamplesToRecover(weak, 0.9), s_weak);
}

TEST(CorrelationAttackDeathTest, RejectsBadElementsPerBlock)
{
    AttackConfig cfg;
    cfg.elementsPerBlock = 3;
    EXPECT_DEATH(CorrelationAttack{cfg}, "divide");
    AttackConfig tiny;
    tiny.elementsPerBlock = 2; // 128 blocks > 64-bit mask
    EXPECT_DEATH(CorrelationAttack{tiny}, "64");
}

TEST(CorrelationAttackDeathTest, RejectsWarpWiderThanPartitionCapacity)
{
    // Matches GpuConfig::validate: the per-subwarp access masks hold at
    // most SubwarpPartition::kMaxThreads subwarps.
    AttackConfig cfg;
    cfg.assumedPolicy = core::CoalescingPolicy::rss(8, true);
    cfg.warpSize = 64;
    EXPECT_DEATH(CorrelationAttack{cfg}, "exceeds the inline partition");
}

} // namespace
} // namespace rcoal::attack
