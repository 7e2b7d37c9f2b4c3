/**
 * @file
 * Golden digests of CorrelationAttack::attackKey's correlation tables.
 *
 * The defense-aware attacker re-simulates a randomized partition per
 * (key byte, guess, plaintext), so every table entry depends on the
 * estimator, the partitioner's RNG call order and the Pearson kernel at
 * once. Each cell folds the bit patterns of all 16 x 256 correlations
 * into one FNV-1a digest.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "rcoal/attack/correlation_attack.hpp"
#include "support/fnv.hpp"

namespace rcoal::attack {
namespace {

/** Random ciphertext lines with timing noise (no planted leak). */
std::vector<EncryptionObservation>
syntheticObservations(unsigned count, unsigned lines, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<EncryptionObservation> observations(count);
    for (EncryptionObservation &obs : observations) {
        obs.ciphertext.resize(lines);
        for (aes::Block &block : obs.ciphertext) {
            for (std::uint8_t &byte : block)
                byte = static_cast<std::uint8_t>(rng.below(256));
        }
        obs.lastRoundTime = rng.normal(400.0, 25.0);
        obs.totalTime = obs.lastRoundTime + rng.normal(4000.0, 50.0);
    }
    return observations;
}

std::uint64_t
correlationDigest(const core::CoalescingPolicy &policy,
                  unsigned draws_per_estimate, unsigned lines)
{
    AttackConfig cfg;
    cfg.assumedPolicy = policy;
    cfg.drawsPerEstimate = draws_per_estimate;
    const CorrelationAttack attack(cfg);
    const auto observations = syntheticObservations(24, lines, 7 + lines);
    const KeyAttackResult result = attack.attackKey(observations, {});
    test::Fnv h;
    for (const ByteAttackResult &byte : result.bytes) {
        for (const double r : byte.correlation)
            h.u64(std::bit_cast<std::uint64_t>(r));
    }
    return h.value();
}

TEST(AttackGolden, BaselineCorrelationTable)
{
    const std::uint64_t digest =
        correlationDigest(core::CoalescingPolicy::baseline(), 1, 32);
    EXPECT_EQ(digest, 0x59fa2f0417567185ull)
        << "0x" << std::hex << digest;
}

TEST(AttackGolden, FssRts8CorrelationTable)
{
    const std::uint64_t digest =
        correlationDigest(core::CoalescingPolicy::fss(8, true), 1, 32);
    EXPECT_EQ(digest, 0xa35202fc5f8b5564ull)
        << "0x" << std::hex << digest;
}

TEST(AttackGolden, RssRts8CorrelationTable)
{
    const std::uint64_t digest =
        correlationDigest(core::CoalescingPolicy::rss(8, true), 1, 32);
    EXPECT_EQ(digest, 0x1f6d152cff6eb5a4ull)
        << "0x" << std::hex << digest;
}

TEST(AttackGolden, RssRts8FourDrawsPerEstimate)
{
    const std::uint64_t digest =
        correlationDigest(core::CoalescingPolicy::rss(8, true), 4, 32);
    EXPECT_EQ(digest, 0x217b64f98c5fd61dull)
        << "0x" << std::hex << digest;
}

TEST(AttackGolden, RssRts8PartialSecondWarp)
{
    // 40 lines: one full warp plus an 8-lane partial warp per estimate.
    const std::uint64_t digest =
        correlationDigest(core::CoalescingPolicy::rss(8, true), 1, 40);
    EXPECT_EQ(digest, 0x28908efc6d0ddfd2ull)
        << "0x" << std::hex << digest;
}

} // namespace
} // namespace rcoal::attack
