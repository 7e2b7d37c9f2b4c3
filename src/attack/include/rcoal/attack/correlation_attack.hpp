/**
 * @file
 * Correlation timing attacks on GPU AES (Jiang et al. baseline and the
 * paper's defense-aware generalizations).
 *
 * The attack recovers the AES-128 last round key byte-by-byte: for every
 * guess m of key byte j it computes, from the observed ciphertexts, the
 * number of last-round coalesced accesses the GPU *would* generate if m
 * were correct (Eq. 3 + the coalescing model), then correlates that
 * estimation vector with the measured timing across plaintext samples.
 * The guess with the highest correlation wins.
 *
 * The coalescing model the attacker assumes is itself a
 * CoalescingPolicy: the baseline attack assumes num-subwarp = 1; the
 * FSS attack (Algorithm 1) assumes the FSS partition; the FSS+RTS / RSS
 * / RSS+RTS attacks simulate the corresponding randomized partitions on
 * the attacker's side (Section IV-E).
 */

#ifndef RCOAL_ATTACK_CORRELATION_ATTACK_HPP
#define RCOAL_ATTACK_CORRELATION_ATTACK_HPP

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "rcoal/attack/encryption_service.hpp"
#include "rcoal/core/partitioner.hpp"

namespace rcoal::attack {

/** Attack parameters. */
struct AttackConfig
{
    /** The attacker's model of the deployed coalescing mechanism. */
    core::CoalescingPolicy assumedPolicy{};

    /** Threads per warp (N); at most core::SubwarpPartition::kMaxThreads. */
    unsigned warpSize = 32;

    /** Table elements per memory block (R = 256/elementsPerBlock^-1). */
    unsigned elementsPerBlock = 16;

    /** What the attacker correlates against. */
    MeasurementVector measurement = MeasurementVector::LastRoundTime;

    /**
     * Randomized attack models redraw the partition per plaintext and
     * average the estimate over this many draws (1 = the paper's
     * single-simulation attacker).
     */
    unsigned drawsPerEstimate = 1;

    /** Attacker-side RNG seed. */
    std::uint64_t seed = 0xa77ac4;
};

/** Result of attacking one key byte. */
struct ByteAttackResult
{
    std::array<double, 256> correlation{}; ///< Per-guess correlation.
    std::uint8_t bestGuess = 0;
    double bestCorrelation = 0.0;
    double correctGuessCorrelation = 0.0; ///< Filled by the evaluator.
    std::uint8_t rankOfCorrect = 0;        ///< 0 = recovered.
};

/** Result of attacking the full 16-byte last round key. */
struct KeyAttackResult
{
    std::array<ByteAttackResult, 16> bytes{};
    aes::Block recoveredLastRoundKey{};
    unsigned bytesRecovered = 0;     ///< vs. ground truth.
    double avgCorrectCorrelation = 0.0; ///< Fig. 15's metric.

    /** True when every byte matched the true last round key. */
    bool
    fullKeyRecovered() const
    {
        return bytesRecovered == 16;
    }
};

/**
 * The correlation timing attack engine.
 */
class CorrelationAttack
{
  public:
    explicit CorrelationAttack(AttackConfig config);

    const AttackConfig &config() const { return cfg; }

    /**
     * Estimate the number of last-round coalesced accesses for one
     * plaintext sample, assuming key byte @p j equals @p guess
     * (the generalized Algorithm 1). Lines are grouped into warps of
     * warpSize sequentially; each warp is partitioned according to the
     * assumed policy and per-subwarp distinct memory blocks are summed.
     */
    double estimateLastRoundAccesses(
        std::span<const aes::Block> ciphertext_lines, unsigned j,
        std::uint8_t guess, Rng &rng) const;

    /**
     * Attack key byte @p j given the collected observations.
     *
     * The 256 candidate guesses are independent: each draws its
     * attacker RNG as Rng::stream(cfg.seed, j * 256 + guess), so the
     * per-guess correlations are identical whether the guesses run
     * serially or spread over @p pool (nullptr = serial).
     */
    ByteAttackResult
    attackByte(std::span<const EncryptionObservation> observations,
               unsigned j, ThreadPool *pool = nullptr) const;

    /**
     * Attack all 16 bytes and evaluate against the true last round key.
     *
     * With a @p pool, all 16 x 256 (byte, guess) correlation tasks are
     * flattened into one parallel loop; the result is bit-identical to
     * the serial run (same per-task RNG stream derivation).
     */
    KeyAttackResult
    attackKey(std::span<const EncryptionObservation> observations,
              const aes::Block &true_last_round_key,
              ThreadPool *pool = nullptr) const;

  private:
    /** Correlation of guess @p m for byte @p j against @p measured. */
    double guessCorrelation(
        std::span<const EncryptionObservation> observations,
        std::span<const double> measured, unsigned j, unsigned m) const;

    /** Rank/recovery bookkeeping shared by the serial/parallel paths. */
    static void evaluateByte(ByteAttackResult &byte_result,
                             std::uint8_t truth);

    AttackConfig cfg;
    core::SubwarpPartitioner partitioner;
    /** Cached partition for deterministic attack models. */
    std::optional<core::SubwarpPartition> fixedPartition;
};

/**
 * Convenience for Fig. 7b-style evaluation: the average, over the 16 key
 * bytes, of the correlation obtained for the *correct* guess.
 */
double averageCorrectCorrelation(const KeyAttackResult &result);

/**
 * Estimated number of timing samples a successful attack needs, given
 * the achieved average correct-guess correlation (Eq. 4 with success
 * rate @p alpha). Returns +inf when the correlation is in the noise.
 */
double estimatedSamplesToRecover(const KeyAttackResult &result,
                                 double alpha = 0.99);

} // namespace rcoal::attack

#endif // RCOAL_ATTACK_CORRELATION_ATTACK_HPP
